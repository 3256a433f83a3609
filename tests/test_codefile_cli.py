import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idcodes import Code
from idcodes.cli import main
from idcodes.codefile import (
    CodeFileError,
    parse_code_text,
    read_code_file,
    serialize_code,
    write_code_file,
)
from idcodes.exact import min_identifying
from idcodes.hypercube import MAX_DIM
from idcodes.signatures import MAX_EVAL_DIM

from conftest import random_code, reference_parse


class TestCodeFileFormat:
    def test_round_trip_through_disk(self, tmp_path, rng):
        for _ in range(5):
            code = random_code(rng, 6)
            path = tmp_path / "c.txt"
            write_code_file(path, code, 2, comments=["one", "two"])
            back = read_code_file(path)
            assert back.code.words == code.words
            assert back.code.dim == 6
            assert back.radius == 2

    def test_serialize_layout(self):
        text = serialize_code(Code.from_words([3, 1], 4), 1, comments=["hello"])
        lines = text.splitlines()
        assert lines[0] == "n=4 r=1"
        assert lines[1] == "# hello"
        assert lines[2:] == ["1", "3"]
        assert text.endswith("\n")

    def test_parse_tolerates_comments_blanks_and_order(self):
        cf = parse_code_text("\n# hi\nn=3 r=1\n\n5\n0 # trailing\n# mid\n2\n")
        assert cf.code.words == (0, 2, 5)
        assert cf.radius == 1

    def test_multiple_words_per_line(self):
        cf = parse_code_text("n=3 r=1\n0 1 5\n")
        assert cf.code.words == (0, 1, 5)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(CodeFileError) as exc:
            parse_code_text("n=3 r=1\n0\nbanana\n")
        assert exc.value.line_no == 3
        with pytest.raises(CodeFileError) as exc:
            parse_code_text("nope\n0\n")
        assert exc.value.line_no == 1
        with pytest.raises(CodeFileError) as exc:
            parse_code_text("n=3 r=1\n8\n")
        assert exc.value.line_no == 2
        with pytest.raises(CodeFileError) as exc:
            parse_code_text("n=3 r=1\n1\n1\n")
        assert exc.value.line_no == 3

    def test_empty_and_headerless_inputs(self):
        texts = ["", "# only a comment\n", "\n \n# c", "n=3 r=1\n# no words\n", "n=3 r=1\r\n\r\n"]
        for text in texts:
            with pytest.raises(CodeFileError) as want:
                reference_parse(text)
            with pytest.raises(CodeFileError) as got:
                parse_code_text(text)
            assert (got.value.line_no, got.value.message) == (
                want.value.line_no,
                want.value.message,
            )

    def test_write_is_atomic_leaves_no_droppings(self, tmp_path):
        path = tmp_path / "c.txt"
        write_code_file(path, Code.from_words([0, 1], 3), 1)
        write_code_file(path, Code.from_words([0, 2], 3), 1)  # overwrite
        assert read_code_file(path).code.words == (0, 2)
        assert os.listdir(tmp_path) == ["c.txt"]

    @pytest.mark.parametrize(
        "text,line_no,message",
        [
            ("n=3 r=1\n\u00b2\n", 2, "expected a decimal codeword, got '\u00b2'"),
            ("n=3 r=1\n\u0663\n", 2, "expected a decimal codeword, got '\u0663'"),
            ("n=\u0663 r=1\n5\n", 1, "expected 'n=<dim> r=<radius>', got 'n=\u0663 r=1'"),
            ("n=40 r=1\n5\n", 1, f"dim must be at most {MAX_DIM}"),
        ],
    )
    def test_only_ascii_digits_and_dims_up_to_max_dim(self, text, line_no, message):
        with pytest.raises(CodeFileError) as exc:
            parse_code_text(text)
        assert (exc.value.line_no, exc.value.message) == (line_no, message)


# tokens that are not codewords; none is made of digits, none holds '#'
_NOT_DIGITS = st.text("abx-+.\u00e90123456789", min_size=1, max_size=6).filter(
    lambda t: not t.isdigit()
)
# every line break str.splitlines knows, and whitespace beyond ASCII
_LINE_ENDS = ["\n", "\r\n", "\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85"]
_LINE_ENDS += ["\u2028", "\u2029"]
_SPACES = [" ", "\t", "  ", "\u00a0", "\x1f", "\u3000"]


@st.composite
def _code_texts(draw, bad_tokens):
    """A code file in a random layout: comments, blank lines, several words
    to a line, leading zeros, every kind of line end.  With bad_tokens,
    that many bad tokens are put at random places among the words."""
    n = draw(st.integers(1, 12))
    words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40, unique=True))
    tokens = [str(w) for w in words]
    for _ in range(bad_tokens):
        kind = draw(st.sampled_from(["not digits", "out of range", "duplicate", "25 digits"]))
        if kind == "not digits":
            bad = draw(_NOT_DIGITS)
        elif kind == "out of range":
            bad = str(draw(st.integers(1 << n, (1 << n) + 100)))
        elif kind == "duplicate":
            bad = str(draw(st.sampled_from(words)))
        else:
            bad = str(draw(st.integers(10**24, 10**25 - 1)))
        tokens.insert(draw(st.integers(0, len(tokens))), bad)
    tokens = ["0" * draw(st.integers(0, 3)) + t for t in tokens]
    lines = draw(st.lists(st.sampled_from(["", "   ", "# note", " # n=9 r=2"]), max_size=2))
    lines.append(f"n={n} r={draw(st.integers(0, 5))}" + draw(st.sampled_from(["", " # header"])))
    while tokens:
        k = draw(st.integers(1, 4))
        line = draw(st.sampled_from(_SPACES)).join(tokens[:k])
        lines.append(line + draw(st.sampled_from(["", " ", " # 1 x"])))
        del tokens[:k]
        lines.extend(draw(st.lists(st.sampled_from(["", "# 7", "\t"]), max_size=1)))
    text = "".join(line + draw(st.sampled_from(_LINE_ENDS)) for line in lines)
    return text if draw(st.booleans()) else text[:-1]


class TestParserMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(_code_texts(bad_tokens=0))
    def test_well_formed_files(self, text):
        assert parse_code_text(text) == reference_parse(text)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2).flatmap(lambda k: _code_texts(bad_tokens=k)))
    def test_first_bad_token_sets_line_and_message(self, text):
        with pytest.raises(CodeFileError) as want:
            reference_parse(text)
        with pytest.raises(CodeFileError) as got:
            parse_code_text(text)
        assert (got.value.line_no, got.value.message) == (want.value.line_no, want.value.message)


@pytest.fixture()
def code_74(tmp_path):
    """A verified 1-identifying code of F^4 on disk."""
    path = tmp_path / "c74.txt"
    write_code_file(path, min_identifying(1, 4).code, 1)
    return str(path)


@pytest.fixture()
def bad_code(tmp_path):
    """Two words can never be 1-identifying in F^4."""
    path = tmp_path / "bad.txt"
    write_code_file(path, Code.from_words([0, 1], 4), 1)
    return str(path)


class TestCliVerify:
    def test_pass(self, code_74, capsys):
        assert main(["verify", code_74, "--r", "1"]) == 0
        out = capsys.readouterr().out
        assert "verdict PASS (1-identifying)" in out
        assert "NC 0" in out and "NS 0" in out

    def test_fail_prints_witness(self, bad_code, capsys):
        assert main(["verify", bad_code, "--r", "1"]) == 1
        out = capsys.readouterr().out
        assert "verdict FAIL" in out
        assert "unseparated pair" in out or "uncovered vertex" in out

    def test_json_payload(self, code_74, capsys):
        assert main(["verify", code_74, "--r", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "PASS"
        assert payload["size"] == 7
        assert payload["nc"] == 0

    def test_discriminating_mode(self, tmp_path, capsys):
        base = min_identifying(1, 4).code
        from idcodes.convert import to_discriminating

        path = tmp_path / "disc.txt"
        write_code_file(path, to_discriminating(base), 1)
        assert main(["verify", str(path), "--r", "1", "--discriminating"]) == 0
        assert "1-discriminating" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["verify", "/nonexistent/x.txt", "--r", "1"]) == 2

    def test_dimension_beyond_eval_limit_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text(f"n={MAX_EVAL_DIM + 1} r=1\n0\n")
        assert main(["verify", str(path), "--r", "1"]) == 2
        assert f"exceeds MAX_EVAL_DIM = {MAX_EVAL_DIM}" in capsys.readouterr().err

    def test_malformed_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("not a header\n")
        assert main(["verify", str(path), "--r", "1"]) == 2
        assert "parse error" in capsys.readouterr().err


class TestCliConstruct:
    def test_greedy_writes_verified_code(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        rc = main([
            "construct", "--method", "greedy", "--r", "1", "--n", "5",
            "--prune", "--out", str(out),
        ])
        assert rc == 0
        cf = read_code_file(out)
        assert cf.radius == 1
        assert main(["verify", str(out), "--r", "1"]) == 0

    def test_noising_needs_size(self, capsys):
        assert main(["construct", "--method", "noising", "--r", "1", "--n", "4"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_noising_stdout(self, capsys):
        rc = main([
            "construct", "--method", "noising", "--r", "1", "--n", "4",
            "--size", "9", "--max-iterations", "3000", "--stop-size", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n=4 r=1" in out

    def test_noising_seed_portfolio(self, capsys):
        rc = main([
            "construct", "--method", "noising", "--r", "1", "--n", "4",
            "--size", "9", "--seeds", "0,1", "--max-iterations", "2000",
            "--stop-size", "8", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[0])
        assert payload["seed"] in (0, 1)
        assert payload["size"] <= 8

    def test_noising_failure_exit(self, capsys):
        rc = main([
            "construct", "--method", "noising", "--r", "1", "--n", "3",
            "--size", "2", "--max-iterations", "40",
        ])
        assert rc == 1
        assert "no identifying code found" in capsys.readouterr().out


class TestCliExtend:
    def test_c1(self, code_74, tmp_path, capsys):
        out = tmp_path / "ext.txt"
        rc = main(["extend", code_74, "--p", "2", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "construction C1" in stdout
        assert "verified PASS" in stdout
        cf = read_code_file(out)
        assert cf.code.dim == 6
        assert len(cf.code) == 28

    def test_c2_with_default_factor(self, tmp_path, capsys):
        base = tmp_path / "b.txt"
        from idcodes.heuristics import greedy_construct

        write_code_file(base, greedy_construct(3, 6, seed=0), 3)
        out = tmp_path / "ext.txt"
        rc = main(["extend", str(base), "--p", "3", "--k", "1", "--out", str(out)])
        assert rc == 0
        assert "construction C2" in capsys.readouterr().out
        assert read_code_file(out).code.dim == 9

    def test_non_identifying_base_fails(self, bad_code, tmp_path, capsys):
        out = tmp_path / "ext.txt"
        rc = main(["extend", bad_code, "--p", "1", "--out", str(out)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out
        assert not out.exists()

    def test_bad_ranges_are_usage_errors(self, code_74, tmp_path, capsys):
        out = tmp_path / "ext.txt"
        rc = main(["extend", code_74, "--p", "2", "--r2", "1", "--out", str(out)])
        assert rc == 2


class TestCliPruneConvert:
    def test_prune_roundtrip(self, tmp_path, capsys):
        from idcodes.heuristics import greedy_construct

        base = greedy_construct(1, 5, seed=1)
        padded = Code.from_words(set(base.words) | {30, 31}, 5)
        src = tmp_path / "p.txt"
        write_code_file(src, padded, 1)
        out = tmp_path / "pruned.txt"
        rc = main(["prune", str(src), "--out", str(out), "--restarts", "4"])
        assert rc == 0
        assert "->" in capsys.readouterr().out
        assert len(read_code_file(out).code) <= len(padded)

    def test_prune_rejects_invalid_input(self, bad_code, capsys):
        assert main(["prune", bad_code]) == 1

    def test_convert_round_trip(self, code_74, tmp_path, capsys):
        disc = tmp_path / "d.txt"
        rc = main(["convert", code_74, "--to", "discriminating", "--out", str(disc)])
        assert rc == 0
        back = tmp_path / "i.txt"
        rc = main(["convert", str(disc), "--to", "identifying", "--out", str(back)])
        assert rc == 0
        assert read_code_file(back).code.words == read_code_file(code_74).code.words

    def test_convert_rejects_non_identifying(self, bad_code, capsys):
        assert main(["convert", bad_code, "--to", "discriminating"]) == 1

    def test_convert_unchecked_passes_through(self, bad_code, tmp_path, capsys):
        out = tmp_path / "d.txt"
        rc = main([
            "convert", bad_code, "--to", "discriminating", "--unchecked",
            "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()


class TestCliExactAndBounds:
    def test_exact_small(self, capsys):
        assert main(["exact", "--r", "1", "--n", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["minimum"] == 7

    def test_exact_budget_exhaustion(self, capsys):
        assert main(["exact", "--r", "1", "--n", "5", "--budget", "3"]) == 1
        assert "budget exhausted" in capsys.readouterr().out

    def test_exact_cap_guard(self, capsys):
        assert main(["exact", "--r", "1", "--n", "9"]) == 2

    def test_exact_dimension_ceiling(self, capsys):
        # refused before any allocation, whatever --cap says
        assert main(["exact", "--r", "1", "--n", "20", "--cap", "20"]) == 2
        assert "exhaustive cap" in capsys.readouterr().err

    def test_bounds_check(self, capsys):
        assert main(["bounds", "--check"]) == 0
        assert "0 failures" in capsys.readouterr().out

    def test_bounds_table_dump(self, capsys):
        assert main(["bounds"]) == 0
        out = capsys.readouterr().out
        assert "1 9 101 114" in out
        assert len(out.splitlines()) == 91  # header + 90 records

    def test_bounds_compare(self, code_74, capsys):
        assert main(["bounds", "--compare", code_74, "--r", "1"]) == 0
        assert "matches-upper" in capsys.readouterr().out

    def test_bounds_compare_needs_r(self, code_74, capsys):
        assert main(["bounds", "--compare", code_74]) == 2

    def test_bounds_compare_unverified(self, bad_code, capsys):
        assert main(["bounds", "--compare", bad_code, "--r", "1"]) == 1


class TestShippedReferenceCode:
    def test_packaged_114_word_code(self, capsys):
        from importlib import resources

        path = resources.files("idcodes").joinpath("data/code_1_9_114.txt")
        cf = parse_code_text(path.read_text())
        assert cf.code.dim == 9
        assert cf.radius == 1
        assert len(cf.code) == 114

import hashlib
import io
import json
import os
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idcodes import Code, cli, codefile
from idcodes.cli import main
from idcodes.codefile import (
    CodeFileError,
    parse_code_text,
    read_code_file,
    serialize_code,
    write_code_file,
)
from idcodes.exact import min_identifying
from idcodes.extend import extend_c1
from idcodes.heuristics import greedy_construct, prune
from idcodes.hypercube import MAX_DIM
from idcodes.signatures import MAX_EVAL_DIM, MAX_TABLE_DIM

from conftest import random_code, reference_parse, reference_serialize


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

    @settings(max_examples=150)
    @given(st.integers(1, MAX_DIM).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40),
        st.lists(st.text(st.characters(codec="utf-8", exclude_characters="\n\r"), max_size=8),
                 max_size=3))))
    def test_serialize_matches_the_per_word_join(self, case):
        n, words, comments = case
        single_digits = [w % min(10, 1 << n) for w in words]
        for ws in (words, [0, *words], single_digits):
            code = Code.from_words(ws, n)
            assert serialize_code(code, 2, comments) == reference_serialize(code, 2, comments)

    def test_serialized_n20_extension_is_pinned(self):
        text = resources.files("idcodes").joinpath("data/code_1_9_114.txt").read_text()
        out = serialize_code(extend_c1(parse_code_text(text).code, 1, 11), 1)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1dfaf4d51cd6be6bd609eee49e05fc6895436c993b208208bae4a6353996b866")

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
    @pytest.mark.parametrize(
        "body",
        [
            " \t\n\r\v\f",  # C whitespace only: no digit to read
            "\n\n",
            "5\x1c6\n",  # whitespace to str.split, not to a C parser
            "5\u00a06\u20287\n",
            "5 \x1f6",
            "0" * 22 + "123\n",  # 25 digits, in range
            "1234567890123456789012345\n",  # 25 digits, past int64
            "3\n99999999999999999999\n",
            "3\n3\n",
        ],
    )
    def test_bodies_at_the_edges_of_the_fast_read(self, body):
        text = f"n=8 r=1\n{body}"
        try:
            want = reference_parse(text)
        except CodeFileError as exc:
            with pytest.raises(CodeFileError) as got:
                parse_code_text(text)
            assert (got.value.line_no, got.value.message) == (exc.line_no, exc.message)
        else:
            assert parse_code_text(text) == want

    @settings(max_examples=150)
    @given(_code_texts(bad_tokens=0))
    def test_well_formed_files(self, text):
        assert parse_code_text(text) == reference_parse(text)

    @settings(max_examples=300)
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
        lines = capsys.readouterr().out.splitlines()
        assert "verdict PASS" in lines and "property 1-identifying" in lines
        assert "nc 0" in lines and "ns 0" in lines

    def test_fail_prints_witness(self, bad_code, capsys):
        assert main(["verify", bad_code, "--r", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "verdict FAIL" in lines
        assert any(line.startswith(("unseparated ", "uncovered ")) for line in lines)

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

    def test_prune_beyond_table_dim_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text(f"n={MAX_TABLE_DIM + 1} r=1\n0\n1\n")
        assert main(["prune", str(path)]) == 2
        assert capsys.readouterr().err == f"error: table dim must be in [1, {MAX_TABLE_DIM}]\n"

    def test_malformed_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("not a header\n")
        assert main(["verify", str(path), "--r", "1"]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_directory_path_is_usage_error(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path), "--r", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unreadable_file_is_usage_error(self, code_74, monkeypatch, capsys):
        def refuse(path):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(codefile, "read_code_file", refuse)
        assert main(["verify", code_74, "--r", "1"]) == 2
        assert "Permission denied" in capsys.readouterr().err


class TestCliConstruct:
    # greedy's codes at (1, 6) and (2, 7) are already 1-minimal; at (1, 9)
    # prune removes a word, so a construct that skipped it would show
    @pytest.mark.parametrize("r,n,seed,restarts", [(1, 6, 0, 4), (2, 7, 5, 4), (1, 9, 1, 4)])
    def test_greedy_prune_writes_prune_of_greedy(self, r, n, seed, restarts, tmp_path, capsys):
        out = tmp_path / "g.txt"
        rc = main([
            "construct", "--method", "greedy", "--r", str(r), "--n", str(n),
            "--seed", str(seed), "--restarts", str(restarts), "--prune", "--out", str(out),
        ])
        assert rc == 0
        want = prune(greedy_construct(r, n, seed), r, restarts, seed)
        assert read_code_file(out).code == want

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        rc = main(["construct", "--method", "greedy", "--r", "1", "--n", "4", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.iterdir())

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

    def test_greedy_prune_zero_restarts_is_a_usage_error(self, capsys):
        rc = main([
            "construct", "--method", "greedy", "--r", "1", "--n", "8",
            "--prune", "--restarts", "0",
        ])
        assert rc == 2
        assert "usage error: --restarts must be >= 1" in capsys.readouterr().err

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

    def test_noising_infinite_rho_init_is_an_error(self, capsys):
        rc = main([
            "construct", "--method", "noising", "--r", "1", "--n", "6",
            "--size", "21", "--rho-init", "inf", "--max-iterations", "300",
        ])
        assert rc == 2
        assert "rho_init must be finite" in capsys.readouterr().err

    def test_noising_negative_stop_size_is_an_error(self, capsys):
        rc = main([
            "construct", "--method", "noising", "--r", "1", "--n", "5",
            "--size", "10", "--stop-size", "-3", "--max-iterations", "300",
        ])
        assert rc == 2
        assert "error: stop_size must be >= 1" in capsys.readouterr().err

    def test_noising_stop_size_below_the_lower_bound_is_a_usage_error(self, capsys, monkeypatch):
        # no 1-identifying code in F^5 has fewer than 10 words: the search
        # could never stop early, so it is refused before it starts
        searched = []
        monkeypatch.setattr(cli.heuristics, "noising_search", lambda *a, **k: searched.append(a))
        rc = main([
            "construct", "--method", "noising", "--r", "1", "--n", "5",
            "--size", "10", "--stop-size", "9",
        ])
        assert rc == 2 and not searched
        err = capsys.readouterr().err
        assert "usage error: --stop-size 9 is below the lower bound 10" in err

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
        lines = capsys.readouterr().out.splitlines()
        assert "construction C1" in lines
        assert "verified true" in lines
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
        assert capsys.readouterr().out.startswith("error base code is not 1-identifying")
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
        lines = capsys.readouterr().out.splitlines()
        assert f"size_before {len(padded)}" in lines
        assert f"size_after {len(read_code_file(out).code)}" in lines
        assert len(read_code_file(out).code) <= len(padded)

    def test_prune_rejects_invalid_input(self, bad_code, capsys):
        assert main(["prune", bad_code]) == 1

    def test_prune_zero_restarts_is_a_usage_error(self, code_74, capsys):
        assert main(["prune", code_74, "--restarts", "0"]) == 2
        captured = capsys.readouterr()
        assert "usage error" in captured.err
        assert "FAIL" not in captured.out

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
        lines = capsys.readouterr().out.splitlines()
        assert "minimum null" in lines and "code null" in lines
        assert "nodes 4" in lines

    def test_exact_negative_budget_is_an_error(self, capsys):
        assert main(["exact", "--r", "1", "--n", "5", "--budget", "-3"]) == 2
        assert "budget -3 must be >= 0" in capsys.readouterr().err

    def test_exact_json_has_one_shape(self, capsys):
        keys = {"r", "n", "minimum", "nodes", "start_size", "infeasible_sizes", "code"}
        assert main(["exact", "--r", "1", "--n", "4", "--json"]) == 0
        done = json.loads(capsys.readouterr().out)
        assert main(["exact", "--r", "1", "--n", "5", "--budget", "3", "--json"]) == 1
        open_ = json.loads(capsys.readouterr().out)
        assert set(done) == set(open_) == keys
        want = min_identifying(1, 4)
        assert done["minimum"] == 7 and done["code"] == list(want.code.words)
        assert done["start_size"] == want.start_size
        assert done["infeasible_sizes"] == list(want.infeasible_sizes)
        assert open_["minimum"] is None and open_["code"] is None
        assert (open_["r"], open_["n"], open_["nodes"]) == (1, 5, 4)
        assert open_["start_size"] == 10 and open_["infeasible_sizes"] == []

    def test_exact_cap_guard(self, capsys):
        assert main(["exact", "--r", "1", "--n", "9"]) == 2

    def test_exact_dimension_ceiling(self, capsys):
        # refused before any allocation, whatever --cap says
        assert main(["exact", "--r", "1", "--n", "20", "--cap", "20"]) == 2
        assert "exhaustive cap" in capsys.readouterr().err

    def test_bounds_check(self, capsys):
        assert main(["bounds", "--check"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("checks ")
        assert lines[1:] == ["failures"]  # an empty list of records: no rows

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

    def test_bounds_compare_untabulated_cell(self, capsys):
        path = resources.files("idcodes").joinpath("data/code_1_9_114.txt")
        assert main(["bounds", "--compare", str(path), "--r", "7"]) == 2
        assert capsys.readouterr().err == "error: no tabulated bounds for r=7, n=9\n"

    def test_internal_key_error_is_not_a_usage_error(self, monkeypatch):
        # only parse and usage failures exit 2; a KeyError is a bug
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(cli.exact, "min_identifying", broken)
        with pytest.raises(KeyError, match="internal"):
            main(["exact", "--r", "1", "--n", "4"])


def _text_of(key, value, header):
    """The text lines of one payload key: ``key value``, a list's items
    after the key, a list of records as the key and ``header`` (its record
    keys, in the text's order) and one row per record; strings bare, other
    values as compact JSON."""
    word = lambda v: v if isinstance(v, str) else json.dumps(v, separators=(",", ":"))
    if isinstance(value, list) and value and isinstance(value[0], dict):
        assert sorted(header) == sorted(value[0])
        rows = [" ".join(word(rec[k]) for k in header) for rec in value]
        return [" ".join([key, *header])] + rows
    if isinstance(value, list):
        return [" ".join([key, *map(word, value)])]
    return [f"{key} {word(value)}"]


_REPORTS = {
    "verify pass": (0, "verify {code} --r 1"),
    "verify fail": (1, "verify {bad} --r 1"),
    "verify discriminating": (0, "verify {disc} --r 1 --discriminating"),
    "construct greedy": (0, "construct --method greedy --r 1 --n 5 --prune --out {out}"),
    "construct noising": (0, "construct --method noising --r 1 --n 4 --size 9 "
                             "--max-iterations 3000 --stop-size 8 --out {out}"),
    "construct noising, nothing found": (1, "construct --method noising --r 1 --n 3 --size 2 "
                                            "--max-iterations 40"),
    "extend C1": (0, "extend {code} --p 2 --out {out}"),
    "extend C2": (0, "extend {base36} --p 3 --k 1 --out {out}"),
    "prune": (0, "prune {code} --out {out}"),
    "convert": (0, "convert {code} --to discriminating --out {out}"),
    "exact": (0, "exact --r 1 --n 4"),
    "exact out of budget": (1, "exact --r 1 --n 5 --budget 3"),
    "bounds": (0, "bounds"),
    "bounds check": (0, "bounds --check"),
    "bounds compare": (0, "bounds --compare {code} --r 1"),
    "extend error": (1, "extend {bad} --p 1 --out {out}"),
}


class TestTextIsThePayload:
    """Every report is one dict: the text form is its ``key value`` rendering."""

    @pytest.mark.parametrize("case", list(_REPORTS))
    def test_text_lines_render_the_json_payload(self, case, code_74, bad_code, tmp_path, capsys):
        from idcodes.convert import to_discriminating

        write_code_file(tmp_path / "disc.txt", to_discriminating(min_identifying(1, 4).code), 1)
        write_code_file(tmp_path / "b36.txt", greedy_construct(3, 6, seed=0), 3)
        rc, line = _REPORTS[case]
        argv = line.format(code=code_74, bad=bad_code, disc=tmp_path / "disc.txt",
                           base36=tmp_path / "b36.txt", out=tmp_path / "out.txt").split()
        assert main(argv + ["--json"]) == rc
        payload = json.loads(capsys.readouterr().out)
        assert main(argv) == rc
        lines = capsys.readouterr().out.splitlines()
        seen = []
        while lines:
            key, *header = lines[0].split(" ")
            want = _text_of(key, payload[key], header)
            assert lines[:len(want)] == want
            del lines[:len(want)]
            seen.append(key)
        assert sorted(seen) == sorted(payload)  # every key once, nothing else

    @pytest.mark.parametrize("line", [
        "construct --method greedy --r 1 --n 4",
        "extend {code} --p 1",
        "prune {code}",
        "convert {code} --to discriminating",
    ])
    def test_json_is_one_document(self, line, code_74, tmp_path, capsys):
        out = tmp_path / "out.txt"
        argv = line.format(code=code_74).split()
        assert main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)  # the whole stdout
        # the code sits in the payload, the words --out would write
        assert main(argv + ["--out", str(out)]) == 0
        assert payload["code"] == list(read_code_file(out).code.words)

    @pytest.mark.parametrize("line,check", [
        ("construct --method greedy --r 1 --n 4", "--r 1"),
        ("extend {code} --p 1", "--r 1"),
        ("prune {code}", "--r 1"),
        ("convert {code} --to discriminating", "--r 1 --discriminating"),
    ])
    def test_text_stdout_is_a_code_file(self, line, check, code_74, tmp_path, capsys):
        # the redirect `idcodes construct ... > g.txt` must read back as a code
        argv = line.format(code=code_74).split()
        assert main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        words = payload.pop("code")
        assert main(argv) == 0
        saved = tmp_path / "saved.txt"
        saved.write_text(capsys.readouterr().out)
        assert list(read_code_file(saved).code.words) == words
        assert main(["verify", str(saved), *check.split()]) == 0
        capsys.readouterr()
        # after the provenance comment, the comments are the text report
        # (in payload order; the JSON sorts its keys)
        comments = [ln[2:] for ln in saved.read_text().splitlines() if ln.startswith("# ")][1:]
        assert sorted(comments) == sorted(text for key, value in payload.items()
                                          for text in _text_of(key, value, []))


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    def test_broken_pipe_exits_141_silently(self, monkeypatch, capsys):
        # a stdout with no file descriptor, as under contextlib.redirect_stdout
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["bounds"]) == 141
        assert capsys.readouterr().err == ""

    @pytest.fixture
    def file_pipe(self, tmp_path):
        """A closed pipe over a real file descriptor."""
        with open(tmp_path / "stdout", "w") as target:
            class ClosedFilePipe(ClosedPipe):
                def fileno(self):
                    return target.fileno()

            yield ClosedFilePipe()

    def test_main_leaves_file_descriptors_alone(self, file_pipe, monkeypatch):
        before = os.fstat(file_pipe.fileno())
        monkeypatch.setattr(sys, "stdout", file_pipe)
        assert main(["bounds"]) == 141
        assert os.path.samestat(os.fstat(file_pipe.fileno()), before)

    def test_command_sends_stdout_to_devnull_after_a_closed_pipe(self, file_pipe, monkeypatch):
        monkeypatch.setattr(sys, "stdout", file_pipe)
        monkeypatch.setattr(sys, "argv", ["idcodes", "bounds"])
        with pytest.raises(SystemExit) as done:
            cli.run()
        assert done.value.code == 141
        # what is still buffered for stdout at shutdown now goes nowhere
        assert os.path.samestat(os.fstat(file_pipe.fileno()), os.stat(os.devnull))

    def test_reader_gone_before_a_short_reply(self):
        path = resources.files("idcodes").joinpath("data/code_1_9_114.txt")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "idcodes.cli", "verify", str(path), "--r", "1"],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")


class TestShippedReferenceCode:
    def test_packaged_114_word_code(self, capsys):
        path = resources.files("idcodes").joinpath("data/code_1_9_114.txt")
        cf = parse_code_text(path.read_text())
        assert cf.code.dim == 9
        assert cf.radius == 1
        assert len(cf.code) == 114

from importlib import resources

import pytest

from idcodes import Code, heuristics, signatures
from idcodes.bounds import (
    KEY_LEGEND,
    MAX_RADIUS,
    MIN_RADIUS,
    BoundRecord,
    RELATIONS,
    _parse_registry,
    check_consistency,
    classify_size,
    compare,
    discriminating_lookup,
    load_registry,
    lookup,
)
from idcodes.codefile import parse_code_text
from idcodes.exact import min_identifying
from idcodes.signatures import diagnose


class TestRegistryLoading:
    def test_row_count(self):
        assert len(load_registry()) == 90

    def test_radius_rows_complete(self):
        table = load_registry()
        for r in range(MIN_RADIUS, MAX_RADIUS + 1):
            dims = sorted(n for (rr, n) in table if rr == r)
            # contiguous runs from r+1 (or the first tabulated dim) to 21
            assert dims == list(range(dims[0], 22))
            assert dims[0] >= r + 1

    def test_every_key_is_in_legend(self):
        # keys can be comma-joined ("G,F") or relation labels ("(16)")
        for rec in load_registry().values():
            for key in (rec.lower_key, rec.upper_key):
                for part in key.split(","):
                    assert part in KEY_LEGEND or part.startswith("(")

    def test_loading_is_cached(self):
        assert load_registry() is load_registry()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1 2 3 3 a B\n1 3 4\n", "registry line 2: expected 6 fields, got 3"),
            ("# r n\n1 2 3 3 a B\n1 2 3 3 a B\n", "registry line 3: duplicate cell r=1 n=2"),
        ],
    )
    def test_malformed_registry_names_the_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            _parse_registry(text)


class TestLookup:
    def test_pinned_cells(self):
        rec = lookup(1, 9)
        assert (rec.lower, rec.upper) == (101, 114)
        assert not rec.exact
        rec = lookup(2, 17)
        assert (rec.lower, rec.upper) == (1761, 3785)
        rec = lookup(5, 18)
        assert (rec.lower, rec.upper) == (77, 454)
        rec = lookup(1, 16)
        assert (rec.lower, rec.upper) == (7654, 9779)

    def test_exact_cells(self):
        for r, n, value in [(1, 2, 3), (1, 3, 4), (1, 4, 7), (1, 5, 10),
                            (1, 7, 32), (2, 3, 7), (2, 4, 6), (2, 5, 6),
                            (3, 4, 15), (4, 5, 31), (5, 6, 63)]:
            rec = lookup(r, n)
            assert rec.exact, f"({r},{n}) should be exact"
            assert rec.upper == value

    def test_open_cell_example(self):
        rec = lookup(1, 6)
        assert (rec.lower, rec.upper) == (18, 19)
        assert not rec.exact

    def test_closed_form_diagonal(self):
        for r in range(1, 6):
            rec = lookup(r, r + 1)
            assert rec.lower == rec.upper == (1 << (r + 1)) - 1

    def test_missing_cell_raises(self):
        with pytest.raises(KeyError):
            lookup(1, 22)
        with pytest.raises(KeyError):
            lookup(6, 10)

    def test_exact_search_confirms_small_cells(self):
        # the registry's exact cells at searchable sizes are reproducible
        for r, n in [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4)]:
            rec = lookup(r, n)
            assert rec.exact
            assert min_identifying(r, n).size == rec.upper


class TestDiscriminatingLookup:
    def test_shifts_dimension_down(self):
        assert discriminating_lookup(1, 10) == lookup(1, 9)
        assert discriminating_lookup(3, 6) == lookup(3, 5)

    def test_even_radius_rejected(self):
        with pytest.raises(ValueError, match="for even r the property equals the one at r - 1, since an odd vertex"):
            discriminating_lookup(2, 10)

    def test_untabulated_raises(self):
        with pytest.raises(KeyError):
            discriminating_lookup(1, 23)


class TestBoundRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundRecord(0, 5, 1, 2, "a", "A")
        with pytest.raises(ValueError):
            BoundRecord(1, 1, 1, 2, "a", "A")
        with pytest.raises(ValueError):
            BoundRecord(1, 5, 5, 4, "a", "A")
        with pytest.raises(ValueError):
            BoundRecord(1, 5, 0, 4, "a", "A")

    def test_exact_property(self):
        assert BoundRecord(1, 4, 7, 7, "c", "A").exact
        assert not BoundRecord(1, 9, 101, 114, "c", "*").exact


class TestConsistency:
    def test_all_checks_pass(self):
        report = check_consistency()
        assert report.ok, "\n".join(
            f"{c.name}: {c.detail}" for c in report.failures
        )

    def test_check_count_is_stable(self):
        # 5 closed-form cells + 10 symmetry pairs + 40 relation rows
        report = check_consistency()
        assert len(report.checks) == 55
        assert report.ok

    def test_relation_rows_reference_tabulated_cells(self):
        table = load_registry()
        for label, r, n, terms, extras, result in RELATIONS:
            assert (r, n) in table
            for _, br, bn in terms:
                assert (br, bn) in table

    def test_tampered_closed_form_cell_is_caught(self, monkeypatch):
        import idcodes.bounds as bounds_mod

        table = dict(load_registry())
        rec = table[(1, 2)]
        table[(1, 2)] = BoundRecord(1, 2, rec.lower, rec.upper + 1, rec.lower_key, rec.upper_key)
        monkeypatch.setattr(bounds_mod, "_REGISTRY", table)
        report = check_consistency()
        assert not report.ok
        assert any("closed-form r=1 n=2" in c.name for c in report.failures)

    def test_tampered_relation_source_is_caught(self, monkeypatch):
        # (1, 19) feeds relation "(6)"; any change to its upper bound must
        # break the recorded arithmetic
        import idcodes.bounds as bounds_mod

        table = dict(load_registry())
        rec = table[(1, 19)]
        table[(1, 19)] = BoundRecord(1, 19, rec.lower, rec.upper + 1, rec.lower_key, rec.upper_key)
        monkeypatch.setattr(bounds_mod, "_REGISTRY", table)
        report = check_consistency()
        assert not report.ok
        assert any(c.name.startswith("(6)") for c in report.failures)


class TestClassification:
    def test_all_four_labels(self):
        # (1, 9) is tabulated as 101..114
        assert classify_size(1, 9, 100) == "violates-lower"
        assert classify_size(1, 9, 110) == "beats-upper"
        assert classify_size(1, 9, 114) == "matches-upper"
        assert classify_size(1, 9, 200) == "between"

    def test_orbit_code_beats_the_1_9_upper_bound(self):
        # the union of the <sigma, kappa>-orbits of seven words, sigma rotating
        # the 9 bits and kappa XORing with 1^9: a 1-identifying code of F^9
        # with 110 words, below the registry's 114
        n, full = 9, (1 << 9) - 1
        words = set()
        for w in (0, 7, 9, 21, 35, 75, 77):
            for _ in range(n):
                w = (w << 1 | w >> (n - 1)) & full
                words |= {w, w ^ full}
        code = Code.from_words(words, n)
        assert len(code) == 110
        assert diagnose(code, 1).identifying
        assert classify_size(1, n, len(code)) == "beats-upper"
        shipped = parse_code_text(resources.files("idcodes").joinpath("data/code_1_9_110.txt").read_text())
        assert (shipped.code, shipped.radius) == (code, 1)

    def test_exact_cell_has_no_gap(self):
        assert classify_size(1, 4, 7) == "matches-upper"
        assert classify_size(1, 4, 8) == "between"
        assert classify_size(1, 4, 6) == "violates-lower"

    def test_compare_verified_code(self):
        code = min_identifying(1, 4).code
        assert compare(code, 1) == "matches-upper"

    def test_compare_rejects_unverified(self):
        with pytest.raises(ValueError):
            compare(Code.from_words([0, 1], 4), 1)

    def test_one_not_identifying_error(self):
        # prune and compare raise one ValueError subclass, which the CLI reads as a failed
        # property (exit 1); any other ValueError, such as a bad radius, is a usage error
        assert heuristics.NotIdentifyingError is signatures.NotIdentifyingError
        assert issubclass(signatures.NotIdentifyingError, ValueError)

"""The built-in fixture catalog: coverage, provenance, clean runs."""

from fractions import Fraction

import pytest

from gsheaf import convalg, exactalg, fixtures, induction, isgring
from gsheaf.errors import InputError
from gsheaf.exactalg import FDAlgebra
from gsheaf.fields import GF
from gsheaf.fixtures import (CATALOG, MIN_CATALOG, catalog_names,
                             get_fixture, run_catalog, run_fixture)
from gsheaf.reports import Report
from gsheaf.schemas import dump_json
from gsheaf.sheaf import constant_sheaf


def test_catalog_size():
    names = catalog_names()
    assert len(names) >= MIN_CATALOG
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_catalog_covers_every_kind():
    kinds = {fix.kind for fix in CATALOG.values()}
    assert kinds == {"sheaf", "space_action", "ring_action", "partial_action"}
    # enough sheaf instances for the ideal-lattice comparisons
    sheaf_count = sum(1 for fix in CATALOG.values() if fix.kind == "sheaf")
    assert sheaf_count >= 8


def test_catalog_names_present():
    for name in ("T1-1-F2", "P2-F2", "P3-F3", "Z2-F2", "S3-F2", "GAL",
                 "DUAL-T1-1", "Z2XP2", "SWAP", "I2NAT", "PSWAP", "RA-GAL"):
        assert name in CATALOG


def test_unknown_fixture_rejected():
    with pytest.raises(InputError):
        get_fixture("no-such-thing")
    with pytest.raises(InputError):
        run_fixture("no-such-thing")


def test_every_expected_value_has_provenance():
    for fix in CATALOG.values():
        assert fix.expected, fix.name
        assert fix.summary
        for key, pair in fix.expected.items():
            assert isinstance(pair, tuple) and len(pair) == 2, (fix.name, key)
            value, provenance = pair
            assert isinstance(provenance, str) and provenance, (fix.name, key)
            assert provenance.startswith(("[TRIVIAL]", "[DERIVED]")), \
                (fix.name, key)


def test_builders_are_rerunnable():
    for name in ("T1-1-F2", "SWAP", "RA-SWAP", "PSWAP"):
        fix = get_fixture(name)
        assert fix.build() is not None
        assert fix.build() is not None


def test_run_fixture_produces_reports():
    reps = run_fixture("GAL")
    assert all(isinstance(r, Report) for r in reps)
    assert all(r.passed is not False for r in reps), \
        [r.check for r in reps if r.passed is False]
    names = [r.check for r in reps]
    assert len(names) == len(set(names))


def test_run_fixture_is_deterministic():
    a = [r.to_json() for r in run_fixture("Z2XP2")]
    b = [r.to_json() for r in run_fixture("Z2XP2")]
    assert a == b


def test_rational_fixture_skips_instead_of_failing():
    reps = run_fixture("P2-Q")
    statuses = {r.check: r.status for r in reps}
    assert all(s in ("pass", "skip") for s in statuses.values())
    assert any(s == "skip" for s in statuses.values())
    skipped = [r for r in reps if r.status == "skip"]
    assert all(r.caps_hit or r.hypotheses for r in skipped)


def test_large_fixture_hits_caps_cleanly():
    # GF(7)[Z7] is local, so its one Peirce piece has 137 257 points
    labels = [f"z{i}" for i in range(7)]
    G = fixtures.group_groupoid("z0", labels, fixtures.cyclic_mul(labels))
    O = constant_sheaf(G, fixtures.scalar_algebra(GF(7)))
    reps, _ = fixtures.BATTERIES["sheaf"]((G, O), 0)
    assert all(r.passed is not False for r in reps)
    capped = [r.check for r in reps if r.caps_hit]
    assert capped == ["uniqueness", "effros-hahn"]


def test_run_catalog_filter():
    results = run_catalog("RA-")
    assert sorted(results) == ["RA-GAL", "RA-SWAP", "RA-TRIV"]
    for reps in results.values():
        assert all(r.passed is not False for r in reps)


def test_run_catalog_empty_filter_is_empty():
    assert run_catalog("zzz") == {}


def test_report_line_format():
    reps = run_fixture("T1-1-F2")
    for r in reps:
        line = r.line()
        assert line.startswith(("[pass] ", "[fail] ", "[skip] "))
        assert r.check in line
        js = r.to_json()
        assert js["status"] in ("pass", "fail", "skip")
        assert ("pass" in js) and (js["pass"] in (True, False, None))


def test_each_fixture_builds_its_skew_ring_once(monkeypatch):
    # the expectations read the battery's reports instead of rebuilding,
    # SIRI is handed the battery's convolution algebra by
    # build_conv_algebra instead of building one, and each memoized
    # invariant runs its body once per algebra (and seed); the radical
    # also runs on each stalk object, once, for the vnr checks, and its
    # recheck of A/J runs the uncertified search, uncounted here.  The
    # germ groupoid is built once per action: for the space actions, the
    # Pierce realizations and the partial crossed products.  Each
    # convolution algebra asked for its ideals, simplicity or radical
    # looks for its orbit corner once; where there is one (9 of the 20),
    # the corner's invariants are computed instead of Gamma's, one for one.
    # Each sheaf's regular module is disintegrated once, for Effros-Hahn
    # and the disintegration report together
    calls, args = {}, {}

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*a, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            args.setdefault(name, []).append(a)
            return original(*a, **kwargs)
        # every module that imported the function by name calls it so
        for mod in (convalg, exactalg, fixtures, induction, isgring):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)

    for name in ("skew_isg_ring", "siri_data", "pierce_data", "pierce_atoms",
                 "dual_ring_action", "_germ_groupoid"):
        count(isgring, name)
    for name in ("validate_algebra", "_two_sided_ideals",
                 "_density_certificate", "_radical", "_central_idempotents"):
        count(exactalg, name)
    count(convalg, "_build")
    count(convalg, "_centralizer_of_diagonal")
    count(convalg, "_orbit_corner")
    count(induction, "module_stalks")
    run_catalog(seed=0)
    assert calls == {"skew_isg_ring": 26, "siri_data": 20, "pierce_data": 3,
                     "pierce_atoms": 3, "dual_ring_action": 3,
                     "_germ_groupoid": 10,
                     "_build": 26, "validate_algebra": 82,
                     "_two_sided_ideals": 15, "_density_certificate": 18,
                     "_centralizer_of_diagonal": 17, "_radical": 34,
                     "_central_idempotents": 18, "_orbit_corner": 20,
                     "module_stalks": 17}
    # the wrappers keep every argument alive, so ids are not reused
    for name in ("_two_sided_ideals", "_density_certificate",
                 "_centralizer_of_diagonal", "_central_idempotents",
                 "_orbit_corner", "module_stalks"):
        seen = [id(a[0]) for a in args[name]]
        assert len(set(seen)) == len(seen), name
    seen = [id(a[0]) for a in args["_radical"]]
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("name", ["P2-Q", "P3-Q"])
def test_unnormalised_rational_stalks_give_the_same_reports(monkeypatch, name):
    """A stalk table of integral Fractions, as a caller may build it, gives
    byte for byte the reports of the canonical int table."""
    def report_bytes():
        return dump_json({"reports": [r.to_json() for r in run_fixture(name)]})

    canonical = report_bytes()
    one = Fraction(1)
    monkeypatch.setattr(fixtures, "scalar_algebra",
                        lambda field: FDAlgebra(field, ["1"], [[[one]]], [one]))
    _, O = get_fixture(name).build()
    assert all(type(A.table[0][0][0]) is Fraction and type(A.unit[0]) is Fraction
               for A in O.stalk.values())
    assert report_bytes() == canonical

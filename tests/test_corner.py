"""The orbit corner eGe, e the sum of 1_x over one unit x per orbit: its
ideal list, simplicity and radical against the whole-algebra engine, and
the certificates that guard them."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsheaf import convalg, exactalg
from gsheaf.convalg import OrbitCorner, build_conv_algebra, orbit_corner
from gsheaf.errors import CheckFailure
from gsheaf.exactalg import (FDAlgebra, Subspace, enumerate_two_sided_ideals,
                             is_simple, jacobson_radical)
from gsheaf.fields import GF, QQ
from gsheaf.fixtures import (catalog_names, cyclic_mul, disjoint_union,
                             get_fixture, group_groupoid, pair_groupoid,
                             scalar_algebra)
from gsheaf.groupoid import FiniteGroupoid, orbits
from gsheaf.sheaf import constant_sheaf
from test_exactalg import LATTICE_SHAPES, dual_over, lattice_conv


def bare(conv):
    A = conv.algebra
    return FDAlgebra(A.field, A.labels, A.table, A.unit)


def whole_answers(A):
    return enumerate_two_sided_ideals(A), is_simple(A), jacobson_radical(A)


def corner_answers(conv):
    return (convalg.two_sided_ideals(conv), convalg.is_simple(conv),
            convalg.jacobson_radical(conv))


def catalog_convs():
    """The convolution algebras of the catalog's finite-field sheaves."""
    out = {}
    for name in catalog_names():
        fix = get_fixture(name)
        if fix.kind == "sheaf":
            G, O = fix.build()
            if O.field.is_finite:
                out[name] = build_conv_algebra(G, O)
    return out


def test_corner_answers_match_the_whole_algebra():
    convs = catalog_convs()
    convs.update((spec, lattice_conv(spec)) for spec in LATTICE_SHAPES)
    smaller = [name for name, conv in convs.items()
               if orbit_corner(conv) is not None]
    assert {"P2-F2", "P3-F3", "DUAL-P2", "MIX", "Z2XP2", "P2/D@2",
            "P2+Z3/F@3"} <= set(smaller)
    # a group algebra is its own corner, and answers on the whole algebra
    assert orbit_corner(convs["S3-F2"]) is None
    assert orbit_corner(convs["Z4/F@7"]) is None
    for name in smaller:
        conv = convs[name]
        assert orbit_corner(conv).algebra.dim < conv.dim, name
        assert corner_answers(conv) == whole_answers(bare(conv)), name


def test_the_corner_answers_are_the_algebras_own(monkeypatch):
    conv = catalog_convs()["MIX"]
    answers = corner_answers(conv)
    calls = []
    for name in ("_two_sided_ideals", "_density_certificate", "_radical"):
        real = getattr(exactalg, name)
        monkeypatch.setattr(exactalg, name, lambda A, real=real, name=name:
                            calls.append((name, A)) or real(A))
    A = conv.algebra
    assert whole_answers(A) == answers
    assert calls == []
    # the corner is built once per convolution algebra
    assert orbit_corner(conv) is orbit_corner(conv)


def test_the_rationals_answer_on_the_whole_algebra():
    G = pair_groupoid(2)
    conv = build_conv_algebra(G, constant_sheaf(G, scalar_algebra(QQ)))
    assert orbit_corner(conv) is None


def two_orbit_conv():
    G = disjoint_union(pair_groupoid(2), tagged(pair_groupoid(2), "t"))
    return build_conv_algebra(G, constant_sheaf(G, dual_over(2)))


def test_a_corner_that_is_not_full_fails():
    conv = two_orbit_conv()
    first = [orbit[0] for orbit in orbits(conv.groupoid)]
    assert OrbitCorner(conv, first).algebra.dim == 4
    with pytest.raises(CheckFailure, match="not full"):
        OrbitCorner(conv, first[:1])


def test_a_tampered_lift_fails(monkeypatch):
    conv = two_orbit_conv()
    corner = orbit_corner(conv)
    full = Subspace.full(conv.field, conv.dim)
    monkeypatch.setattr(OrbitCorner, "lift", lambda self, A, K: full)
    with pytest.raises(CheckFailure, match="e \\(Gamma K Gamma\\) e != K"):
        corner.ideals(conv.algebra)
    # lifts that cut back to their ideal but coincide
    lifted = []
    monkeypatch.setattr(OrbitCorner, "lift",
                        lambda self, A, K: lifted.append(K) or full)
    monkeypatch.setattr(OrbitCorner, "cut", lambda self, A, I: lifted[-1])
    with pytest.raises(CheckFailure, match="lift to the same ideal"):
        corner.ideals(conv.algebra)


@pytest.mark.parametrize("tamper,message", [
    # the unit of one block, not an ideal: its lift cuts back to the block
    (lambda B: Subspace.from_vectors(B.field, B.dim, [B.basis_vector(0)]),
     "not the radical of the corner"),
    # an ideal, but not nilpotent: the whole corner lifts to Gamma
    (lambda B: Subspace.full(B.field, B.dim), "not nilpotent"),
])
def test_a_tampered_corner_radical_fails(monkeypatch, tamper, message):
    conv = two_orbit_conv()
    corner = orbit_corner(conv)
    real = exactalg.jacobson_radical
    monkeypatch.setattr(exactalg, "jacobson_radical", lambda B, seed=0: (
        tamper(B) if B is corner.algebra else real(B, seed)))
    with pytest.raises(CheckFailure, match=message):
        convalg.jacobson_radical(conv)


# ---------------------------------------------------------------------------
# random disjoint unions


def tagged(G, tag):
    """G with every unit and arrow id prefixed by tag."""
    def t(a):
        return f"{tag}{a}"

    return FiniteGroupoid(
        [t(u) for u in G.units], [t(a) for a in G.arrows],
        {t(a): t(u) for a, u in G.src.items()},
        {t(a): t(u) for a, u in G.dst.items()},
        {(t(a), t(b)): t(c) for (a, b), c in G.compose.items()},
        {t(a): t(b) for a, b in G.inverse.items()})


def component(kind, n):
    if kind == "P":
        return pair_groupoid(n)
    labels = [f"z{i}" for i in range(n)]
    return group_groupoid(labels[0], labels, cyclic_mul(labels))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("PZ"), st.integers(1, 3)),
                min_size=1, max_size=3),
       st.sampled_from([2, 3]), st.booleans())
def test_the_corner_is_the_ideal_lattice_of_gamma(parts, p, dual):
    G = functools.reduce(disjoint_union, [
        tagged(component(kind, n), f"c{k}") for k, (kind, n) in enumerate(parts)])
    stalk = dual_over(p) if dual else scalar_algebra(GF(p))
    conv = build_conv_algebra(G, constant_sheaf(G, stalk))
    corner = orbit_corner(conv)
    if corner is None:
        assert all(kind == "Z" or n == 1 for kind, n in parts)
        return
    whole = whole_answers(bare(conv))
    assert corner_answers(conv) == whole
    # I -> eIe maps the ideals of Gamma one to one onto the corner's
    cuts = [corner.cut(conv.algebra, I) for I in whole[0]]
    assert sorted(cuts, key=Subspace.sort_key) == \
        enumerate_two_sided_ideals(corner.algebra)

"""Named example instances with independently derived expected values.

Every expected value carries a provenance note naming the oracle that
produced it: [TRIVIAL] values are immediate from the construction,
[DERIVED] values were computed by the named independent method (ideal
lattices of factor algebras, counts of partial bijections, and so on).
The run machinery replays every structural check on every fixture and
compares against the stored expectations, so a regression in any layer
surfaces as a failed fixture report.
"""

from __future__ import annotations

import itertools

from . import convalg, induction, isgring, linalg, sheaf as sheafmod
from .convalg import build_conv_algebra
from .errors import CapExceeded, InputError
from .exactalg import FDAlgebra, Subspace, scalar_algebra
from .fields import GF, QQ
from .groupoid import (FiniteGroupoid, bisection_semigroup, is_effective,
                       is_minimal)
from .isgring import (FiniteInverseSemigroup, PartialGroupAction,
                      SpaceAction, SpectralRingAction, germ_groupoid,
                      symmetric_inverse_monoid)
from .reports import Report, skip_report
from .sheaf import GSheafOfAlgebras, constant_sheaf

MIN_CATALOG = 14


# ---------------------------------------------------------------------------
# small algebras used as stalks


def f4_algebra() -> FDAlgebra:
    """GF(4) as GF(2)[w] with w^2 = w + 1."""
    f = GF(2)
    table = [[[1, 0], [0, 1]],
             [[0, 1], [1, 1]]]
    return FDAlgebra(f, ["1", "w"], table, [1, 0])


def dual_numbers() -> FDAlgebra:
    """GF(2)[u] with u^2 = 0; not von Neumann regular, witness u."""
    f = GF(2)
    table = [[[1, 0], [0, 1]],
             [[0, 1], [0, 0]]]
    return FDAlgebra(f, ["1", "u"], table, [1, 0])


def frobenius_matrix():
    """The squaring automorphism of GF(4): w maps to w + 1."""
    return [[1, 1], [0, 1]]


# ---------------------------------------------------------------------------
# groupoid builders


def t1_groupoid(n: int) -> FiniteGroupoid:
    """n isolated units, identity arrows only."""
    units = [f"u{i}" for i in range(1, n + 1)]
    return FiniteGroupoid(units, units,
                          {u: u for u in units}, {u: u for u in units},
                          {(u, u): u for u in units}, {u: u for u in units})


def pair_groupoid(n: int) -> FiniteGroupoid:
    """Exactly one arrow j -> i per ordered pair; convolution gives M_n."""
    units = [f"u{i}" for i in range(1, n + 1)]

    def lab(i, j):
        return units[i - 1] if i == j else f"a{i}{j}"

    arrows, src, dst = [], {}, {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            a = lab(i, j)
            arrows.append(a)
            src[a] = units[j - 1]
            dst[a] = units[i - 1]
    compose = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                compose[lab(i, j), lab(j, k)] = lab(i, k)
    inverse = {lab(i, j): lab(j, i)
               for i in range(1, n + 1) for j in range(1, n + 1)}
    return FiniteGroupoid(units, arrows, src, dst, compose, inverse)


def group_groupoid(unit, elements, mul: dict) -> FiniteGroupoid:
    """One unit whose isotropy is the given group; unit = group identity."""
    inverse = {}
    for g in elements:
        for h in elements:
            if mul[g, h] == unit and mul[h, g] == unit:
                inverse[g] = h
    return FiniteGroupoid([unit], elements,
                          {g: unit for g in elements},
                          {g: unit for g in elements},
                          dict(mul), inverse)


def cyclic_mul(labels) -> dict:
    n = len(labels)
    return {(labels[i], labels[j]): labels[(i + j) % n]
            for i in range(n) for j in range(n)}


def s3_group():
    """(unit, elements, mul) for the symmetric group on three symbols."""
    perms = sorted(itertools.permutations(range(3)))
    label = {p: "p" + "".join(map(str, p)) for p in perms}
    mul = {}
    for a in perms:
        for b in perms:
            mul[label[a], label[b]] = label[tuple(a[b[i]] for i in range(3))]
    return label[(0, 1, 2)], [label[p] for p in perms], mul


def disjoint_union(G1: FiniteGroupoid, G2: FiniteGroupoid) -> FiniteGroupoid:
    overlap = set(G1.arrows) & set(G2.arrows)
    if overlap:
        raise InputError(f"cannot union groupoids sharing labels {overlap}")
    compose = dict(G1.compose)
    compose.update(G2.compose)
    inverse = dict(G1.inverse)
    inverse.update(G2.inverse)
    src = dict(G1.src)
    src.update(G2.src)
    dst = dict(G1.dst)
    dst.update(G2.dst)
    return FiniteGroupoid(list(G1.units) + list(G2.units),
                          list(G1.arrows) + list(G2.arrows),
                          src, dst, compose, inverse)


def z2_bundle_over_p2() -> FiniteGroupoid:
    """Product of the two-unit pair groupoid with the order-2 group.

    Two parallel arrows in each slot; convolution over the constant
    GF(2) sheaf is the 2x2 matrix ring over the group algebra of the
    order-2 group.
    """
    units = ["u1", "u2"]

    def lab(i, j, z):
        if i == j:
            return (f"u{i}" if z == 0 else f"g{i}")
        return (f"a{i}{j}" if z == 0 else f"b{i}{j}")

    arrows, src, dst, compose, inverse = [], {}, {}, {}, {}
    for i in (1, 2):
        for j in (1, 2):
            for z in (0, 1):
                a = lab(i, j, z)
                arrows.append(a)
                src[a] = f"u{j}"
                dst[a] = f"u{i}"
                inverse[a] = lab(j, i, z)
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                for z1 in (0, 1):
                    for z2 in (0, 1):
                        compose[lab(i, j, z1), lab(j, k, z2)] = \
                            lab(i, k, (z1 + z2) % 2)
    return FiniteGroupoid(units, arrows, src, dst, compose, inverse)


def galois_sheaf():
    """Order-2 isotropy acting on the GF(4) stalk by squaring.

    Not effective, yet the kernel of the coefficient action is trivial,
    so the convolution algebra (the 2x2 matrix ring over GF(2)) is
    still simple with a masa diagonal.
    """
    G = group_groupoid("x", ["x", "g"], cyclic_mul(["x", "g"]))
    A = f4_algebra()
    alpha = {"x": linalg.identity_matrix(GF(2), 2), "g": frobenius_matrix()}
    return G, GSheafOfAlgebras(G, GF(2), {"x": A}, alpha)


# ---------------------------------------------------------------------------
# inverse semigroups, actions


def z2_isg() -> FiniteInverseSemigroup:
    return FiniteInverseSemigroup(["1", "g"], cyclic_mul(["1", "g"]),
                                  {"1": "1", "g": "g"})


def trivial_isg() -> FiniteInverseSemigroup:
    return FiniteInverseSemigroup(["1"], {("1", "1"): "1"}, {"1": "1"})


def swap_action() -> SpaceAction:
    S = z2_isg()
    pts = ["a", "b"]
    domain = {"1": frozenset(pts), "g": frozenset(pts)}
    theta = {"1": {"a": "a", "b": "b"}, "g": {"a": "b", "b": "a"}}
    return SpaceAction(S, pts, domain, theta)


def trivial_z2_action() -> SpaceAction:
    S = z2_isg()
    domain = {"1": frozenset(["a"]), "g": frozenset(["a"])}
    theta = {"1": {"a": "a"}, "g": {"a": "a"}}
    return SpaceAction(S, ["a"], domain, theta)


def identity_only_action() -> SpaceAction:
    S = trivial_isg()
    pts = ["a", "b"]
    return SpaceAction(S, pts, {"1": frozenset(pts)},
                       {"1": {"a": "a", "b": "b"}})


def natural_i2_action() -> SpaceAction:
    S, graphs = symmetric_inverse_monoid(["1", "2"])
    domain = {s: frozenset(y for _, y in graphs[s]) for s in S.elements}
    theta = {s: dict(graphs[s]) for s in S.elements}
    return SpaceAction(S, ["1", "2"], domain, theta)


def partial_swap_action() -> PartialGroupAction:
    """Order-2 group swapping two of three points, third point is only
    in the domain of the identity."""
    pts = ["a", "b", "c"]
    return PartialGroupAction(
        ["1", "g"], cyclic_mul(["1", "g"]), "1", pts,
        {"1": frozenset(pts), "g": frozenset(["a", "b"])},
        {"1": {x: x for x in pts}, "g": {"a": "b", "b": "a"}})


def global_swap_action() -> PartialGroupAction:
    pts = ["a", "b"]
    return PartialGroupAction(
        ["1", "g"], cyclic_mul(["1", "g"]), "1", pts,
        {"1": frozenset(pts), "g": frozenset(pts)},
        {"1": {x: x for x in pts}, "g": {"a": "b", "b": "a"}})


def trivial_partial_action() -> PartialGroupAction:
    pts = ["a", "b"]
    return PartialGroupAction(
        ["1"], {("1", "1"): "1"}, "1", pts, {"1": frozenset(pts)},
        {"1": {x: x for x in pts}})


def _diag_f2_squared() -> FDAlgebra:
    f = GF(2)
    table = [[[1, 0], [0, 0]],
             [[0, 0], [0, 1]]]
    return FDAlgebra(f, ["x", "y"], table, [1, 1])


def swap_ring_action() -> SpectralRingAction:
    """Order-2 group exchanging the two factors of GF(2) x GF(2)."""
    A = _diag_f2_squared()
    S = z2_isg()
    full = Subspace.full(A.field, 2)
    alpha = {"1": linalg.identity_matrix(A.field, 2),
             "g": [[0, 1], [1, 0]]}
    return SpectralRingAction(S, A, {"1": full, "g": full}, alpha)


def trivial_ring_action() -> SpectralRingAction:
    A = _diag_f2_squared()
    S = trivial_isg()
    full = Subspace.full(A.field, 2)
    return SpectralRingAction(S, A, {"1": full},
                              {"1": linalg.identity_matrix(A.field, 2)})


def galois_ring_action() -> SpectralRingAction:
    """Order-2 group acting on GF(4) by the squaring automorphism."""
    A = f4_algebra()
    S = z2_isg()
    full = Subspace.full(A.field, 2)
    alpha = {"1": linalg.identity_matrix(A.field, 2),
             "g": frobenius_matrix()}
    return SpectralRingAction(S, A, {"1": full, "g": full}, alpha)


# ---------------------------------------------------------------------------
# the catalog


class Fixture:
    """A named instance plus expected values with provenance notes.

    kind is one of "sheaf" (build returns (groupoid, sheaf)),
    "space_action", "ring_action", "partial_action" (build returns
    (action, field)).  expected maps check keys to (value, provenance).
    """

    def __init__(self, name: str, kind: str, summary: str, build,
                 expected: dict):
        self.name = name
        self.kind = kind
        self.summary = summary
        self.build = build
        self.expected = expected

    def __repr__(self):
        return f"Fixture({self.name}: {self.kind})"


def _const(G: FiniteGroupoid, A: FDAlgebra):
    return G, constant_sheaf(G, A)


_IDEAL = "[DERIVED] ideal lattice of the factor algebras"
_COUNT = "[TRIVIAL] count from the construction"
_HAND = "[DERIVED] hand computation with the structure constants"
_WEDD = "[DERIVED] Wedderburn decomposition of the group algebra"
_BIJ = "[DERIVED] count of partial bijections"
_SIRI_P2 = ("[DERIVED] dims over the four arrow singletons and the unit "
            "space, with one relation per unit")

_FIXTURES = [
    Fixture(
        "T1-1-F2", "sheaf", "single unit, scalar GF(2) stalk",
        lambda: _const(t1_groupoid(1), scalar_algebra(GF(2))),
        {
            "dim": (1, _COUNT),
            "n_ideals": (2, "[TRIVIAL] zero and the whole field"),
            "simple": (True, "[TRIVIAL] the base field is simple"),
            "minimal": (True, _COUNT),
            "effective": (True, _COUNT),
            "int_ker": (True, _COUNT),
            "masa": (True, "[TRIVIAL] the diagonal is everything"),
            "vnr": (True, "[TRIVIAL] fields are regular"),
            "radical_dim": (0, "[TRIVIAL] fields are semisimple"),
            "fields": (True, _COUNT),
            "siri_dims": ((1, 0, 1), "[DERIVED] one nonempty bisection"),
        }),

    Fixture(
        "T1-2-F2", "sheaf", "two isolated units over GF(2)",
        lambda: _const(t1_groupoid(2), scalar_algebra(GF(2))),
        {
            "dim": (2, _COUNT),
            "n_ideals": (4, "[DERIVED] ideals of a product of two fields"),
            "simple": (False, "[TRIVIAL] two orbits give a proper ideal"),
            "minimal": (False, _COUNT),
            "effective": (True, _COUNT),
            "int_ker": (True, _COUNT),
            "masa": (True, "[TRIVIAL] the diagonal is everything"),
            "vnr": (True, "[TRIVIAL] fields are regular"),
            "radical_dim": (0, "[TRIVIAL] products of fields are semisimple"),
            "fields": (True, _COUNT),
            "n_bisections": (4, _BIJ),
            "siri_dims": ((4, 2, 2), "[DERIVED] dims over the four bisections"),
        }),

    Fixture(
        "T1-3-F3", "sheaf", "three isolated units over GF(3)",
        lambda: _const(t1_groupoid(3), scalar_algebra(GF(3))),
        {
            "dim": (3, _COUNT),
            "n_ideals": (8, "[DERIVED] ideals of a product of three fields"),
            "simple": (False, "[TRIVIAL] three orbits"),
            "minimal": (False, _COUNT),
            "radical_dim": (0, "[TRIVIAL] products of fields are semisimple"),
            "fields": (True, _COUNT),
        }),

    Fixture(
        "P2-F2", "sheaf", "pair groupoid on two units over GF(2)",
        lambda: _const(pair_groupoid(2), scalar_algebra(GF(2))),
        {
            "dim": (4, _COUNT),
            "n_ideals": (2, "[DERIVED] 2x2 matrix rings are simple"),
            "simple": (True, "[DERIVED] 2x2 matrix rings are simple"),
            "minimal": (True, _COUNT),
            "effective": (True, _COUNT),
            "int_ker": (True, _COUNT),
            "masa": (True, _HAND),
            "vnr": (True, "[TRIVIAL] fields are regular"),
            "radical_dim": (0, "[DERIVED] matrix rings are semisimple"),
            "fields": (True, _COUNT),
            "n_bisections": (7, _BIJ),
            "siri_dims": ((6, 2, 4), _SIRI_P2),
        }),

    Fixture(
        "P2-F3", "sheaf", "pair groupoid on two units over GF(3)",
        lambda: _const(pair_groupoid(2), scalar_algebra(GF(3))),
        {
            "dim": (4, _COUNT),
            "n_ideals": (2, "[DERIVED] 2x2 matrix rings are simple"),
            "simple": (True, "[DERIVED] 2x2 matrix rings are simple"),
            "radical_dim": (0, "[DERIVED] matrix rings are semisimple"),
            "fields": (True, _COUNT),
            "siri_dims": ((6, 2, 4), _SIRI_P2),
        }),

    Fixture(
        "P2-Q", "sheaf", "pair groupoid on two units over the rationals",
        lambda: _const(pair_groupoid(2), scalar_algebra(QQ)),
        {
            "dim": (4, _COUNT),
            "minimal": (True, _COUNT),
            "effective": (True, _COUNT),
            "int_ker": (True, _COUNT),
            "masa": (True, _HAND),
            "fields": (True, _COUNT),
            "simple": (True, "[DERIVED] 2x2 matrix rings are simple"),
            "siri_dims": ((6, 2, 4), _SIRI_P2),
        }),

    Fixture(
        "P3-F2", "sheaf", "pair groupoid on three units over GF(2)",
        lambda: _const(pair_groupoid(3), scalar_algebra(GF(2))),
        {
            "dim": (9, _COUNT),
            "simple": (True, "[DERIVED] 3x3 matrix rings are simple"),
            "minimal": (True, _COUNT),
            "effective": (True, _COUNT),
            "int_ker": (True, _COUNT),
            "masa": (True, _HAND),
            "radical_dim": (0, "[DERIVED] matrix rings are semisimple"),
            "fields": (True, _COUNT),
        }),

    Fixture(
        "P3-F3", "sheaf", "pair groupoid on three units over GF(3)",
        lambda: _const(pair_groupoid(3), scalar_algebra(GF(3))),
        {
            "dim": (9, _COUNT),
            "simple": (True, "[DERIVED] 3x3 matrix rings are simple"),
            "radical_dim": (0, "[DERIVED] matrix rings are semisimple"),
            "fields": (True, _COUNT),
        }),

    Fixture(
        "P3-Q", "sheaf", "pair groupoid on three units over the rationals",
        lambda: _const(pair_groupoid(3), scalar_algebra(QQ)),
        {
            "dim": (9, _COUNT),
            "masa": (True, _HAND),
            "fields": (True, _COUNT),
        }),

    Fixture(
        "Z2-F2", "sheaf", "one unit with order-2 isotropy over GF(2)",
        lambda: _const(group_groupoid("1", ["1", "g"], cyclic_mul(["1", "g"])),
                       scalar_algebra(GF(2))),
        {
            "dim": (2, _COUNT),
            "n_ideals": (3, "[DERIVED] the modular group algebra is local"),
            "simple": (False, _WEDD),
            "minimal": (True, _COUNT),
            "effective": (False, _COUNT),
            "int_ker": (False, "[TRIVIAL] constant coefficients fix isotropy"),
            "masa": (False, _HAND),
            "vnr": (True, "[TRIVIAL] the stalk is a field"),
            "radical_dim": (1, _WEDD),
            "fields": (True, _COUNT),
            "n_bisections": (3, _BIJ),
            "siri_dims": ((2, 0, 2),
                          "[DERIVED] dims over the two arrow singletons"),
        }),

    Fixture(
        "Z3-F3", "sheaf", "one unit with order-3 isotropy over GF(3)",
        lambda: _const(group_groupoid("1", ["1", "g", "gg"],
                                      cyclic_mul(["1", "g", "gg"])),
                       scalar_algebra(GF(3))),
        {
            "dim": (3, _COUNT),
            "n_ideals": (4, "[DERIVED] the modular group algebra is a chain ring"),
            "simple": (False, _WEDD),
            "minimal": (True, _COUNT),
            "effective": (False, _COUNT),
            "int_ker": (False, "[TRIVIAL] constant coefficients fix isotropy"),
            "masa": (False, _HAND),
            "radical_dim": (2, _WEDD),
            "fields": (True, _COUNT),
        }),

    Fixture(
        "S3-F2", "sheaf", "one unit with symmetric-group isotropy over GF(2)",
        lambda: _const(group_groupoid(*s3_group()), scalar_algebra(GF(2))),
        {
            "dim": (6, _COUNT),
            "n_ideals": (6, _WEDD),
            "simple": (False, _WEDD),
            "minimal": (True, _COUNT),
            "effective": (False, _COUNT),
            "int_ker": (False, "[TRIVIAL] constant coefficients fix isotropy"),
            "masa": (False, _HAND),
            "vnr": (True, "[TRIVIAL] the stalk is a field"),
            "radical_dim": (1, _WEDD),
            "fields": (True, _COUNT),
            "siri_dims": ((6, 0, 6),
                          "[DERIVED] singleton bisections of a group"),
        }),

    Fixture(
        "GAL", "sheaf", "order-2 isotropy twisting GF(4) by squaring",
        lambda: galois_sheaf(),
        {
            "dim": (4, _COUNT),
            "n_ideals": (2, "[DERIVED] the twisted algebra is a 2x2 matrix ring"),
            "simple": (True, "[DERIVED] the twisted algebra is a 2x2 matrix ring"),
            "minimal": (True, _COUNT),
            "effective": (False, _COUNT),
            "int_ker": (True, "[TRIVIAL] squaring is not the identity on GF(4)"),
            "masa": (True, _HAND),
            "vnr": (True, "[TRIVIAL] the stalk is a field"),
            "radical_dim": (0, "[DERIVED] matrix rings are semisimple"),
            "fields": (True, _COUNT),
            "siri_dims": ((4, 0, 4),
                          "[DERIVED] dims over the two arrow singletons"),
        }),

    Fixture(
        "DUAL-T1-1", "sheaf", "single unit with a dual-number stalk",
        lambda: _const(t1_groupoid(1), dual_numbers()),
        {
            "dim": (2, _COUNT),
            "n_ideals": (3, "[DERIVED] the dual numbers are a chain ring"),
            "simple": (False, "[TRIVIAL] the nilpotent part is an ideal"),
            "minimal": (True, _COUNT),
            "effective": (True, _COUNT),
            "int_ker": (True, _COUNT),
            "masa": (True, "[TRIVIAL] the diagonal is everything"),
            "vnr": (False, "[DERIVED] no x solves u x u = u"),
            "radical_dim": (1, "[DERIVED] the nilradical of the dual numbers"),
            "fields": (False, "[TRIVIAL] u is a zero divisor"),
            "siri_dims": ((2, 0, 2), "[DERIVED] one nonempty bisection"),
        }),

    Fixture(
        "DUAL-P2", "sheaf", "pair groupoid over the dual numbers",
        lambda: _const(pair_groupoid(2), dual_numbers()),
        {
            "dim": (8, _COUNT),
            "n_ideals": (3, "[DERIVED] ideals of 2x2 matrices over a chain ring"),
            "simple": (False, "[TRIVIAL] the nilpotent part is an ideal"),
            "minimal": (True, _COUNT),
            "effective": (True, _COUNT),
            "int_ker": (True, _COUNT),
            "masa": (True, _HAND),
            "vnr": (False, "[DERIVED] no x solves u x u = u"),
            "radical_dim": (4, "[DERIVED] matrices over the nilradical"),
            "fields": (False, "[TRIVIAL] u is a zero divisor"),
        }),

    Fixture(
        "MIX", "sheaf", "pair groupoid next to an order-2 isotropy unit",
        lambda: _const(disjoint_union(
            pair_groupoid(2),
            group_groupoid("w", ["w", "v"], cyclic_mul(["w", "v"]))),
            scalar_algebra(GF(2))),
        {
            "dim": (6, _COUNT),
            "n_ideals": (6, _IDEAL),
            "simple": (False, "[TRIVIAL] two orbits"),
            "minimal": (False, _COUNT),
            "effective": (False, _COUNT),
            "int_ker": (False, "[TRIVIAL] constant coefficients fix isotropy"),
            "masa": (False, _HAND),
            "vnr": (True, "[TRIVIAL] the stalk is a field"),
            "radical_dim": (1, _WEDD),
            "fields": (True, _COUNT),
        }),

    Fixture(
        "Z2XP2", "sheaf", "order-2 group bundle over the pair groupoid",
        lambda: _const(z2_bundle_over_p2(), scalar_algebra(GF(2))),
        {
            "dim": (8, _COUNT),
            "n_ideals": (3, "[DERIVED] 2x2 matrices over the local group algebra"),
            "simple": (False, _WEDD),
            "minimal": (True, _COUNT),
            "effective": (False, _COUNT),
            "int_ker": (False, "[TRIVIAL] constant coefficients fix isotropy"),
            "masa": (False, _HAND),
            "vnr": (True, "[TRIVIAL] the stalk is a field"),
            "radical_dim": (4, "[DERIVED] matrices over the augmentation ideal"),
            "fields": (True, _COUNT),
        }),

    Fixture(
        "SWAP", "space_action", "order-2 group exchanging two points",
        swap_action,
        {
            "topfree": (True, "[TRIVIAL] the swap fixes nothing"),
            "n_orbits": (1, _COUNT),
            "minimal_action": (True, _COUNT),
            "germ_arrows": (4, "[DERIVED] germs collapse to the pair groupoid"),
            "effective_germ": (True, "[DERIVED] germs collapse to the pair groupoid"),
        }),

    Fixture(
        "TRIVZ2", "space_action", "order-2 group acting trivially on a point",
        trivial_z2_action,
        {
            "topfree": (False, "[TRIVIAL] g fixes the point but is not "
                               "dominated by an idempotent"),
            "n_orbits": (1, _COUNT),
            "minimal_action": (True, _COUNT),
            "germ_arrows": (2, "[DERIVED] the germ groupoid is the acting group"),
            "effective_germ": (False, "[DERIVED] the germ groupoid is the "
                                      "acting group"),
        }),

    Fixture(
        "IDONLY", "space_action", "trivial semigroup on two points",
        identity_only_action,
        {
            "topfree": (True, "[TRIVIAL] only the idempotent acts"),
            "n_orbits": (2, _COUNT),
            "minimal_action": (False, _COUNT),
            "germ_arrows": (2, "[DERIVED] germs give two isolated units"),
            "effective_germ": (True, "[DERIVED] germs give two isolated units"),
        }),

    Fixture(
        "I2NAT", "space_action", "all partial bijections of two points",
        natural_i2_action,
        {
            "topfree": (True, "[DERIVED] every fixed point sits inside the "
                              "domain idempotent"),
            "n_orbits": (1, _COUNT),
            "minimal_action": (True, _COUNT),
            "germ_arrows": (4, "[DERIVED] eight pairs collapse to four germs"),
            "effective_germ": (True, "[DERIVED] germs collapse to the pair "
                                     "groupoid"),
        }),

    Fixture(
        "PSWAP", "partial_action", "partial swap of two points out of three",
        lambda: (partial_swap_action(), QQ),
        {
            "tg_arrows": (5, "[DERIVED] three units plus two swap germs"),
            "conv_dim": (5, _COUNT),
            "quotient_dim": (5, "[DERIVED] the relation ideal of a group "
                                "action is zero"),
        }),

    Fixture(
        "GSWAP", "partial_action", "global swap of two points",
        lambda: (global_swap_action(), QQ),
        {
            "tg_arrows": (4, "[DERIVED] the transformation groupoid is the "
                             "pair groupoid"),
            "conv_dim": (4, _COUNT),
            "quotient_dim": (4, "[DERIVED] the skew ring of a global action "
                                "is the full crossed product"),
        }),

    Fixture(
        "PTRIV", "partial_action", "trivial group on two points",
        lambda: (trivial_partial_action(), QQ),
        {
            "tg_arrows": (2, _COUNT),
            "conv_dim": (2, _COUNT),
            "quotient_dim": (2, _COUNT),
        }),

    Fixture(
        "RA-SWAP", "ring_action", "order-2 group exchanging two field factors",
        swap_ring_action,
        {
            "n_atoms": (2, "[TRIVIAL] the two coordinate idempotents"),
            "germ_arrows": (4, "[DERIVED] the atom action germifies to the "
                               "pair groupoid"),
            "quotient_dim": (4, "[DERIVED] the skew ring is a 2x2 matrix ring"),
        }),

    Fixture(
        "RA-TRIV", "ring_action", "trivial semigroup on two field factors",
        trivial_ring_action,
        {
            "n_atoms": (2, "[TRIVIAL] the two coordinate idempotents"),
            "germ_arrows": (2, "[DERIVED] two isolated atom germs"),
            "quotient_dim": (2, _COUNT),
        }),

    Fixture(
        "RA-GAL", "ring_action", "order-2 group twisting GF(4) by squaring",
        galois_ring_action,
        {
            "n_atoms": (1, "[TRIVIAL] GF(4) has no idempotents besides 0 and 1"),
            "germ_arrows": (2, "[DERIVED] a single atom with order-2 isotropy"),
            "quotient_dim": (4, "[DERIVED] the skew ring is a 2x2 matrix ring"),
        }),
]
CATALOG: dict[str, Fixture] = {fix.name: fix for fix in _FIXTURES}
if len(CATALOG) != len(_FIXTURES):
    raise InputError("duplicate fixture names in the catalog")


def catalog_names() -> list[str]:
    return sorted(CATALOG)


def get_fixture(name: str) -> Fixture:
    if name not in CATALOG:
        raise InputError(f"unknown fixture {name}; known: "
                         + ", ".join(catalog_names()))
    return CATALOG[name]


# ---------------------------------------------------------------------------
# running a fixture's full battery


def _expected_report(fix: Fixture, key: str, actual_fn) -> Report:
    exp, prov = fix.expected[key]
    name = f"{fix.name}:{key}"
    try:
        actual = actual_fn()
    except CapExceeded as exc:
        return skip_report(name, caps_hit=[str(exc)], notes=[prov])
    return Report(check=name, lhs=exp, rhs=actual, passed=(exp == actual),
                  notes=[prov])


def vnr_diagonal_report(O: GSheafOfAlgebras) -> Report:
    """Dictionary entry: the diagonal is von Neumann regular exactly
    when every stalk is a field (commutative case by construction)."""
    rep = Report(check="vnr_diagonal")
    try:
        flag, wit = sheafmod.diagonal_vnr(O)
    except CapExceeded as exc:
        return skip_report("vnr_diagonal", caps_hit=[str(exc)])
    fields = sheafmod.is_sheaf_of_fields(O)
    rep.lhs = {"diagonal_vnr": flag}
    rep.rhs = {"stalks_are_fields": fields}
    rep.passed = (flag == fields)
    if wit is not None:
        rep.witnesses["non_regular_element"] = wit
    return rep


# Each battery takes the built fixture and the seed (which changes no
# answer: every check is deterministic), and returns (reports, getters):
# the reports it always runs and the getters its stored expectations are
# compared with.


def _measured(rep: Report, read):
    """Getter for a value the battery's report already measured.  A
    skipped report skips the expectation with the report's own caps; a
    failed report that measured nothing gives None."""
    def get():
        if rep.passed is None:
            raise CapExceeded("; ".join(rep.caps_hit))
        return None if rep.lhs is None else read(rep)
    return get


def _sheaf_battery(built, seed: int):
    G, O = built
    conv = build_conv_algebra(G, O)
    siri = isgring.verify_siri(G, O)
    reports = [
        convalg.check_convolution_table(conv),
        convalg.check_bisection_convolution(conv),
        convalg.check_masa_criterion(conv),
        convalg.check_uniqueness_theorem(conv),
        convalg.check_simplelife(G, O, conv),
        convalg.check_primitivity(G, O, conv),
        convalg.check_semiprimitivity(G, O, conv, seed),
        vnr_diagonal_report(O),
        induction.verify_effros_hahn(conv, seed),
        siri,
        induction.check_disintegration(conv),
    ]
    getters = {
        "dim": lambda: conv.dim,
        "n_ideals": lambda: len(convalg.two_sided_ideals(conv)),
        "simple": lambda: convalg.is_simple(conv),
        "minimal": lambda: is_minimal(G),
        "effective": lambda: is_effective(G),
        "int_ker": lambda: sheafmod.int_ker_is_units(O),
        "masa": lambda: convalg.is_diagonal_masa(conv),
        "vnr": lambda: sheafmod.diagonal_vnr(O)[0],
        "radical_dim": lambda: convalg.jacobson_radical(conv).dim,
        "fields": lambda: sheafmod.is_sheaf_of_fields(O),
        "n_bisections": lambda: len(bisection_semigroup(G)[0].elements),
        "siri_dims": _measured(siri, lambda r: tuple(r.lhs.values())),
    }
    return reports, getters


def _space_battery(act: SpaceAction, seed: int):
    reports = [
        isgring.check_cinza(act),
        isgring.check_orbit_correspondence(act),
        isgring.check_simpleaction(act),
    ]
    getters = {
        "topfree": lambda: isgring.is_topologically_free(act),
        "n_orbits": lambda: len(isgring.action_orbits(act)),
        "minimal_action": lambda: isgring.is_minimal_action(act),
        "germ_arrows": lambda: len(germ_groupoid(act).groupoid.arrows),
        "effective_germ": lambda: is_effective(germ_groupoid(act).groupoid),
    }
    return reports, getters


def _partial_battery(built, seed: int):
    act, field = built
    rep = isgring.verify_partial_crossed(act, field)
    getters = {
        "tg_arrows": _measured(rep, lambda r: r.rhs["groupoid arrows"]),
        "conv_dim": _measured(rep, lambda r: r.rhs["dim conv"]),
        "quotient_dim": _measured(rep, lambda r: r.lhs["dim skew ring"]),
    }
    return [rep], getters


def _ring_battery(act: SpectralRingAction, seed: int):
    rep = isgring.pierce_verification(act)
    getters = {
        "n_atoms": _measured(rep, lambda r: r.rhs["atoms"]),
        "germ_arrows": _measured(rep, lambda r: r.rhs["germ arrows"]),
        "quotient_dim": _measured(rep, lambda r: r.lhs["dim quotient"]),
    }
    return [rep], getters


BATTERIES = {
    "sheaf": _sheaf_battery,
    "space_action": _space_battery,
    "partial_action": _partial_battery,
    "ring_action": _ring_battery,
}


def run_fixture(name: str, seed: int = 0) -> list[Report]:
    """Build the named fixture and run its whole battery of checks."""
    fix = get_fixture(name)
    if fix.kind not in BATTERIES:
        raise InputError(f"unknown fixture kind {fix.kind}")
    reports, getters = BATTERIES[fix.kind](fix.build(), seed)
    for key in fix.expected:
        reports.append(_expected_report(fix, key, getters[key]))
    return reports


def run_catalog(name_filter: str | None = None, seed: int = 0) -> dict:
    """Reports for every fixture whose name contains the filter,
    keyed by fixture name in sorted order."""
    out = {}
    for name in catalog_names():
        if name_filter and name_filter not in name:
            continue
        out[name] = run_fixture(name, seed)
    return out

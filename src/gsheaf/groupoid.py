"""Finite groupoids and their bisections.

A finite groupoid is a set of arrows over a set of units with a partial
composition: compose[(beta, rho)] is defined exactly when
src(beta) == dst(rho), writing src for the domain map d and dst for the
range map r.  Every unit's identity arrow carries the unit's own id.

At finite scale the topology is discrete: every subset of arrows is
compact open, interiors and closures are the identity, and an orbit is
dense iff it meets every unit, i.e. iff it is everything.
"""

from __future__ import annotations

import itertools

from .errors import CapExceeded, InputError

ARROW_CAP = 8


class FiniteGroupoid:
    def __init__(self, units, arrows, src, dst, compose, inverse):
        self.units = tuple(units)
        self.arrows = tuple(arrows)
        self.src = dict(src)
        self.dst = dict(dst)
        self.compose = dict(compose)
        self.inverse = dict(inverse)
        self.arrow_index = {a: i for i, a in enumerate(self.arrows)}
        self.unit_index = {u: i for i, u in enumerate(self.units)}
        if len(self.arrow_index) != len(self.arrows):
            raise InputError("duplicate arrow ids")
        if len(self.unit_index) != len(self.units):
            raise InputError("duplicate unit ids")

    def unit_arrow(self, u):
        """Identity arrows carry their unit's id."""
        return u

    def is_unit_arrow(self, a) -> bool:
        return a in self.unit_index

    def composable(self, beta, rho) -> bool:
        return self.src[beta] == self.dst[rho]

    def isotropy_arrows(self, x):
        return [a for a in self.arrows if self.src[a] == x and self.dst[a] == x]

    def iso_bundle(self):
        """All arrows with equal source and target."""
        return [a for a in self.arrows if self.src[a] == self.dst[a]]

    def arrows_from(self, x):
        return [a for a in self.arrows if self.src[a] == x]

    def arrows_between(self, x, y):
        return [a for a in self.arrows if self.src[a] == x and self.dst[a] == y]

    def __repr__(self):
        return f"FiniteGroupoid({len(self.units)} units, {len(self.arrows)} arrows)"


def validate_groupoid(G: FiniteGroupoid) -> list[str]:
    """All groupoid axioms; returns violation descriptions (empty = valid)."""
    bad = []
    for a in G.arrows:
        if G.src.get(a) not in G.unit_index or G.dst.get(a) not in G.unit_index:
            bad.append(f"arrow {a} has src/dst outside the unit set")
    for u in G.units:
        e = G.unit_arrow(u)
        if e not in G.arrow_index:
            bad.append(f"unit {u} has no identity arrow (expected arrow id {u!r})")
        elif G.src[e] != u or G.dst[e] != u:
            bad.append(f"identity arrow of unit {u} is not a loop at {u}")
    if bad:
        return bad
    for beta in G.arrows:
        for rho in G.arrows:
            defined = (beta, rho) in G.compose
            if defined != G.composable(beta, rho):
                bad.append(f"compose defined on ({beta},{rho}) "
                           f"iff src==dst fails")
                continue
            if defined:
                g = G.compose[beta, rho]
                if g not in G.arrow_index:
                    bad.append(f"compose({beta},{rho}) is not an arrow")
                    continue
                if G.src[g] != G.src[rho] or G.dst[g] != G.dst[beta]:
                    bad.append(f"compose({beta},{rho}) has wrong src/dst")
    if bad:
        return bad
    for a in G.arrows:
        for b in G.arrows:
            if not G.composable(a, b):
                continue
            ab = G.compose[a, b]
            for c in G.arrows:
                if not G.composable(b, c):
                    continue
                bc = G.compose[b, c]
                if G.compose[ab, c] != G.compose[a, bc]:
                    bad.append(f"associativity fails on ({a},{b},{c})")
    for g in G.arrows:
        e_r = G.unit_arrow(G.dst[g])
        e_s = G.unit_arrow(G.src[g])
        if G.compose.get((e_r, g)) != g or G.compose.get((g, e_s)) != g:
            bad.append(f"identity arrows are not neutral on {g}")
    for g in G.arrows:
        h = G.inverse.get(g)
        if h is None or h not in G.arrow_index:
            bad.append(f"arrow {g} has no inverse")
            continue
        if G.src[h] != G.dst[g] or G.dst[h] != G.src[g]:
            bad.append(f"inverse of {g} has wrong src/dst")
            continue
        if (G.compose.get((g, h)) != G.unit_arrow(G.dst[g])
                or G.compose.get((h, g)) != G.unit_arrow(G.src[g])):
            bad.append(f"{g} composed with its inverse misses the identity")
    return bad


def require_valid_groupoid(G: FiniteGroupoid) -> None:
    bad = validate_groupoid(G)
    if bad:
        raise InputError("; ".join(bad[:3]))


def equivalence_classes(items, pairs) -> list[list]:
    """Classes of the equivalence relation on items generated by pairs,
    by union-find: classes in order of first appearance in items, and
    each class in item order."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
    classes: dict = {}
    for x in items:
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


def orbits(G: FiniteGroupoid) -> list[list]:
    """Partition of the units; orbit lists keep unit input order."""
    return equivalence_classes(G.units,
                               ((G.src[a], G.dst[a]) for a in G.arrows))


def orbit_of(G: FiniteGroupoid, x) -> list:
    for orb in orbits(G):
        if x in orb:
            return orb
    raise InputError(f"unknown unit {x}")


def is_minimal(G: FiniteGroupoid) -> bool:
    """Single orbit. At finite scale this is also 'some orbit is dense'."""
    if not G.units:
        raise InputError("minimality needs a nonempty unit space")
    return len(orbits(G)) == 1


def is_effective(G: FiniteGroupoid) -> bool:
    """All isotropy trivial.  With the discrete topology the interior of
    the isotropy bundle is the bundle itself, so effectiveness collapses
    to principality at finite scale."""
    return all(len(G.isotropy_arrows(x)) == 1 for x in G.units)


# ---------------------------------------------------------------------------
# bisections


def is_bisection(G: FiniteGroupoid, B) -> bool:
    srcs = [G.src[a] for a in B]
    dsts = [G.dst[a] for a in B]
    return len(set(srcs)) == len(srcs) and len(set(dsts)) == len(dsts)


def bisection_product(G: FiniteGroupoid, B, C) -> frozenset:
    return frozenset(G.compose[b, c] for b in B for c in C if G.composable(b, c))


def bisection_star(G: FiniteGroupoid, B) -> frozenset:
    return frozenset(G.inverse[b] for b in B)


def _bisection_label(G: FiniteGroupoid, B) -> str:
    if not B:
        return "{}"
    return "{" + ",".join(sorted(B, key=G.arrow_index.get)) + "}"


def bisection_semigroup(G: FiniteGroupoid, arrow_cap: int = ARROW_CAP,
                        generators=None):
    """The inverse semigroup of bisections under pointwise composition.

    With no generators: all bisections (full enumeration; capped by arrow
    count, and kept as an oracle).  With generators: the inverse
    subsemigroup they generate, which must be wide: it covers every arrow,
    its idempotents cover every unit, and each U & V is a union of members
    (Exel 2008).

    Returns (semigroup, member_sets) where member_sets maps each element
    label to its frozenset of arrow ids.
    """
    from .isgring import FiniteInverseSemigroup  # cycle-free at call time

    if generators is None:
        if len(G.arrows) > arrow_cap:
            raise CapExceeded(
                f"bisection enumeration capped at {arrow_cap} arrows, "
                f"groupoid has {len(G.arrows)}")
        members = []
        for k in range(len(G.arrows) + 1):
            for sub in itertools.combinations(G.arrows, k):
                if is_bisection(G, sub):
                    members.append(frozenset(sub))
    else:
        members = []
        seen = set()
        work = []
        for B in generators:
            B = frozenset(B)
            if not B <= set(G.arrows):
                raise InputError("generator contains unknown arrows")
            if not is_bisection(G, B):
                raise InputError(f"generator {sorted(B)} is not a bisection")
            if B not in seen:
                seen.add(B)
                members.append(B)
                work.append(B)
        while work:
            B = work.pop()
            for new in [bisection_star(G, B)] + [bisection_product(G, B, C)
                                                 for C in list(members)] + \
                       [bisection_product(G, C, B) for C in list(members)]:
                if new not in seen:
                    seen.add(new)
                    members.append(new)
                    work.append(new)
        covered = set().union(*members) if members else set()
        if covered != set(G.arrows):
            raise InputError("generated bisections do not cover every arrow")
        idem_cover = set()
        for B in members:
            if bisection_product(G, B, B) == B and bisection_star(G, B) == B:
                idem_cover |= {G.src[a] for a in B}
        if idem_cover != set(G.units):
            raise InputError("generated idempotent bisections do not cover the units")
        for B in members:
            for C in members:
                meet = B & C
                if meet not in seen and meet != set().union(
                        *(D for D in members if D <= meet)):
                    raise InputError(
                        f"generated bisections are not wide: "
                        f"{_bisection_label(G, B)} & {_bisection_label(G, C)} "
                        f"is no union of members")

    members = sorted(members, key=lambda B: (len(B), sorted(G.arrow_index[a] for a in B)))
    label = {B: _bisection_label(G, B) for B in members}
    mul, star = {}, {}
    member_set = set(members)
    for B in members:
        sB = bisection_star(G, B)
        if sB not in member_set:
            raise InputError("bisections are not closed under inversion")
        star[label[B]] = label[sB]
        for C in members:
            P = bisection_product(G, B, C)
            if P not in member_set:
                raise InputError("bisections are not closed under products")
            mul[label[B], label[C]] = label[P]
    sgrp = FiniteInverseSemigroup([label[B] for B in members], mul, star)
    # idempotents must be exactly the sets of identity arrows
    units = set(G.units)
    for B in members:
        idem = mul[label[B], label[B]] == label[B] and star[label[B]] == label[B]
        if idem != all(a in units for a in B):
            raise InputError("idempotent bisections are not exactly unit subsets")
    return sgrp, {label[B]: B for B in members}

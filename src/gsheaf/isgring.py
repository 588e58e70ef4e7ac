"""Inverse semigroups acting on rings and spaces, and the rings they build.

A spectral action of an inverse semigroup S on a ring A assigns to each
s a two-sided ideal D_s with a central-idempotent unit and a ring
isomorphism alpha_s: D_{s*} -> D_s, compatibly with the natural partial
order u <= s  <=>  u = u u* s.  From the action we build

    L = direct sum over s of D_s delta_s,
    (a delta_s)(b delta_t) = alpha_s(alpha_{s*}(a) b) delta_{st},
    N = span of a delta_r - a delta_s  for r <= s and a in D_r,

verify that N is a two-sided ideal, and return the quotient L/N.

Space actions by partial bijections give a groupoid of germs: arrows are
classes [s,x] for x in the domain of theta_s, where (s,x) ~ (t,x) when
some u <= s,t is defined at x.  The equivalence-relation properties and
well-definedness of the product are verified rather than assumed, so
malformed inputs fail loudly instead of producing a wrong groupoid.

The verifications at the bottom check, on finite instances: the
convolution algebra is the skew ring of the bisection action on its
diagonal; skew rings of spectral actions are convolution algebras over
the germ groupoid of the Pierce-spectrum action; topological freeness
matches effectiveness of the germ groupoid; minimality matches
simplicity; and partial crossed products are transformation-groupoid
convolution algebras.
"""

from __future__ import annotations

import itertools

from . import convalg, exactalg, linalg
from .convalg import ConvAlgebra, build_conv_algebra
from .errors import AlgebraError, CapExceeded, CheckFailure, InputError
from .exactalg import FDAlgebra, Subspace
from .fields import Field
from .groupoid import (FiniteGroupoid, bisection_semigroup,
                       equivalence_classes, is_effective, orbits,
                       require_valid_groupoid)
from .reports import Report, skip_report
from .sheaf import (GSheafOfAlgebras, constant_sheaf, is_sheaf_of_fields,
                    validate_sheaf)


class FiniteInverseSemigroup:
    """Elements with a total product table and an involution table."""

    def __init__(self, elements, mul, star, validate: bool = True):
        self.elements = tuple(elements)
        self.index = {s: i for i, s in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise InputError("duplicate semigroup elements")
        self.mul = dict(mul)
        self.star = dict(star)
        if validate:
            bad = validate_inverse_semigroup(self)
            if bad:
                raise InputError("not an inverse semigroup: " + bad[0])

    def idempotents(self):
        return [e for e in self.elements if self.mul[e, e] == e]

    def natural_leq(self, u, s) -> bool:
        """u <= s in the natural partial order: u = u u* s."""
        return u == self.mul[self.mul[u, self.star[u]], s]

    def __repr__(self):
        return f"FiniteInverseSemigroup({len(self.elements)} elements)"


def validate_inverse_semigroup(S: FiniteInverseSemigroup) -> list[str]:
    """First-failure-named check of the inverse semigroup axioms; it names
    the failure that the check of every triple names first."""
    elems = S.elements
    eset = set(elems)
    for s in elems:
        if s not in S.star or S.star[s] not in eset:
            return [f"star undefined or out of range at {s}"]
        for t in elems:
            if (s, t) not in S.mul or S.mul[s, t] not in eset:
                return [f"product undefined or out of range at ({s},{t})"]
    for s in elems:
        if S.star[S.star[s]] != s:
            return [f"star is not an involution at {s}"]
    # a zero z (z c = c z = z for all c) is met by a left fold of all the
    # elements; both sides read z = z on the triples with ab = z = bc
    z = elems[0] if elems else None
    for c in elems:
        z = S.mul[z, c]
    if all(S.mul[z, c] == z == S.mul[c, z] for c in elems):
        later = {b: [c for c in elems if S.mul[b, c] != z] for b in elems}
    else:
        later = dict.fromkeys(elems, elems)
    for a in elems:
        for b in elems:
            ab = S.mul[a, b]
            for c in (later[b] if ab == z else elems):
                if S.mul[ab, c] != S.mul[a, S.mul[b, c]]:
                    return [f"associativity fails at ({a},{b},{c})"]
    for s in elems:
        st = S.star[s]
        if S.mul[S.mul[s, st], s] != s:
            return [f"s s* s != s at {s}"]
        if S.mul[S.mul[st, s], st] != st:
            return [f"s* s s* != s* at {s}"]
    idem = [e for e in elems if S.mul[e, e] == e]
    for e in idem:
        for f in idem:
            if S.mul[e, f] != S.mul[f, e]:
                return [f"idempotents {e} and {f} do not commute"]
    return []


def symmetric_inverse_monoid(symbols):
    """I(n): all partial injections on the symbols, under composition.

    Elements are labeled "[x>y,...]" by their graphs, sorted by symbol
    order, with "[]" the empty map.  Returns (semigroup, graphs) where
    graphs maps each label to its frozenset of (x, y) pairs.
    """
    symbols = list(symbols)
    pos = {x: i for i, x in enumerate(symbols)}
    n = len(symbols)
    graphs = []
    for k in range(n + 1):
        for dom in itertools.combinations(symbols, k):
            for img in itertools.permutations(symbols, k):
                graphs.append(frozenset(zip(dom, img)))
    graphs = sorted(set(graphs),
                    key=lambda g: (len(g), sorted((pos[x], pos[y]) for x, y in g)))

    def label(g):
        inner = ",".join(f"{x}>{y}"
                         for x, y in sorted(g, key=lambda p: pos[p[0]]))
        return f"[{inner}]"

    by_graph = {g: label(g) for g in graphs}
    mul, star = {}, {}
    for g in graphs:
        gmap = dict(g)
        star[by_graph[g]] = by_graph[frozenset((y, x) for x, y in g)]
        for h in graphs:
            comp = frozenset((x, gmap[y]) for x, y in h if y in gmap)
            mul[by_graph[g], by_graph[h]] = by_graph[comp]
    S = FiniteInverseSemigroup([by_graph[g] for g in graphs], mul, star)
    return S, {by_graph[g]: g for g in graphs}


# ---------------------------------------------------------------------------
# spectral actions on rings and the skew ring


class SpectralRingAction:
    """Action of an inverse semigroup on an algebra by partial isos.

    domain[s] is the ideal D_s; alpha[s] is a full ambient matrix whose
    restriction to D_{s*} is the partial isomorphism onto D_s (values
    off D_{s*} are never used).  units[s] is the identity element of
    D_s, computed during validation.
    """

    def __init__(self, S: FiniteInverseSemigroup, A: FDAlgebra,
                 domain: dict, alpha: dict, validate: bool = True):
        self.semigroup = S
        self.algebra = A
        self.domain = dict(domain)
        self.alpha = dict(alpha)
        self.units: dict = {}
        if validate:
            bad = validate_ring_action(self)
            if bad:
                raise InputError("invalid ring action: " + bad[0])


def validate_ring_action(act: SpectralRingAction) -> list[str]:
    S, A = act.semigroup, act.algebra
    f = A.field
    for s in S.elements:
        if s not in act.domain or s not in act.alpha:
            return [f"missing domain or alpha for {s}"]
        if not exactalg.is_ideal(A, act.domain[s], "two"):
            return [f"D_{s} is not a two-sided ideal"]
    for s in S.elements:
        Dsrc, Ddst = act.domain[S.star[s]], act.domain[s]
        M = act.alpha[s]
        if len(M) != A.dim or any(len(r) != A.dim for r in M):
            return [f"alpha[{s}] has the wrong shape"]
        imgs = [linalg.mat_vec(f, M, list(b)) for b in Dsrc.basis]
        if not Ddst.contains_all(imgs):
            return [f"alpha[{s}] does not map D_{S.star[s]} into D_{s}"]
        if Dsrc.dim != Ddst.dim:
            return [f"D_{S.star[s]} and D_{s} have different dimensions"]
        if Subspace.from_vectors(f, A.dim, imgs).dim != Dsrc.dim:
            return [f"alpha[{s}] is not injective on its domain"]
        Minv = act.alpha[S.star[s]]
        for b in Dsrc.basis:
            if linalg.mat_vec(f, Minv, linalg.mat_vec(f, M, list(b))) != list(b):
                return [f"alpha[{S.star[s]}] does not invert alpha[{s}]"]
        for u in Dsrc.basis:
            for v in Dsrc.basis:
                lhs = linalg.mat_vec(f, M, A.mul(list(u), list(v)))
                rhs = A.mul(linalg.mat_vec(f, M, list(u)),
                            linalg.mat_vec(f, M, list(v)))
                if lhs != rhs:
                    return [f"alpha[{s}] is not multiplicative"]
    idem = S.idempotents()
    for e in idem:
        for b in act.domain[e].basis:
            if linalg.mat_vec(f, act.alpha[e], list(b)) != list(b):
                return [f"alpha[{e}] is not the identity on D_{e}"]
    # spectral: every domain has a unit that is a central idempotent of A
    for s in S.elements:
        D = act.domain[s]
        u = exactalg.find_unit(A, within=D) if D.dim else linalg.zero_vector(f, A.dim)
        if u is None:
            return [f"D_{s} has no identity element"]
        if A.mul(u, u) != u:
            return [f"identity of D_{s} is not idempotent"]
        for i in range(A.dim):
            b = A.basis_vector(i)
            if A.mul(u, b) != A.mul(b, u):
                return [f"identity of D_{s} is not central in the ambient ring"]
        act.units[s] = u
    # alpha_s, a ring isomorphism D_{s*} -> D_s, maps u_{s*} to u_s.
    # The homomorphism law alpha_s o alpha_t = alpha_st.  The composite is
    # defined on alpha_{t*}(D_{s*} D_t), the ideal with unit
    # alpha_{t*}(u_{s*} u_t); units are central idempotents, so that ideal
    # is D_{(st)*} exactly when its unit is u_{(st)*}
    for s in S.elements:
        for t in S.elements:
            st = S.mul[s, t]
            unit = linalg.mat_vec(f, act.alpha[S.star[t]],
                                  A.mul(act.units[S.star[s]], act.units[t]))
            if unit != act.units[S.star[st]]:
                return [f"alpha[{s}] o alpha[{t}] is not defined exactly "
                        f"on D_{S.star[st]}"]
            for b in act.domain[S.star[st]].basis:
                lhs = linalg.mat_vec(f, act.alpha[s],
                                     linalg.mat_vec(f, act.alpha[t], list(b)))
                if lhs != linalg.mat_vec(f, act.alpha[st], list(b)):
                    return [f"alpha[{s}] o alpha[{t}] disagrees with alpha[{st}]"]
    total = Subspace.zero(f, A.dim)
    for e in idem:
        total = total.join(act.domain[e])
    if not total.is_full():
        return ["sum of idempotent domains is not the whole ring"]
    return []


class SkewRing:
    """L, the relation ideal N, and the quotient L/N with its projection."""

    def __init__(self, act: SpectralRingAction):
        S, A = act.semigroup, act.algebra
        f = A.field
        self.action = act
        self.labels = [(s, k) for s in S.elements
                       for k in range(act.domain[s].dim)]
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        dim = len(self.labels)
        zero = linalg.zero_vector(f, dim)
        table = []
        for (s, k) in self.labels:
            a = list(act.domain[s].basis[k])
            a_back = linalg.mat_vec(f, act.alpha[S.star[s]], a)
            row = []
            for (t, m) in self.labels:
                b = list(act.domain[t].basis[m])
                prod = A.mul(a_back, b)
                if linalg.vec_is_zero(prod):  # 0 lies in every D_st
                    row.append(zero)
                    continue
                prod = linalg.mat_vec(f, act.alpha[s], prod)
                st = S.mul[s, t]
                try:
                    coords = act.domain[st].coords_of(prod)
                except AlgebraError:
                    raise CheckFailure(
                        f"product of blocks ({s},{t}) escapes D_{st}") from None
                row.append(self._place(st, coords))
            table.append(row)
        L = FDAlgebra(f, self.labels, table)
        u = exactalg.find_unit(L)
        if u is not None:
            L.unit = tuple(u)
        self.L = L
        gens = []
        for r in S.elements:
            for s in S.elements:
                if r == s or not S.natural_leq(r, s):
                    continue
                for b in act.domain[r].basis:
                    try:
                        coords = act.domain[s].coords_of(b)
                    except AlgebraError:
                        raise InputError(
                            f"{r} <= {s} but D_{r} is not inside D_{s}") from None
                    gens.append(linalg.vec_sub(f, self.embed(r, list(b)),
                                               self._place(s, coords)))
        self.N = Subspace.from_vectors(f, dim, gens)
        # quotient_algebra checks that N is an ideal
        try:
            self.quotient, _ = exactalg.quotient_algebra(L, self.N)
        except AlgebraError:
            raise CheckFailure("relation span is not a two-sided ideal") from None
        _, self.lift = exactalg.quotient_coords(f, self.N)
        if self.quotient.unit is None:
            qu = exactalg.find_unit(self.quotient)
            if qu is not None:
                self.quotient.unit = tuple(qu)

    def embed(self, s, ambient_vec):
        """a delta_s as an L coordinate vector; a must lie in D_s."""
        try:
            coords = self.action.domain[s].coords_of(ambient_vec)
        except AlgebraError:
            raise AlgebraError(f"element does not lie in D_{s}") from None
        return self._place(s, coords)

    def _place(self, s, coords):
        """The L coordinate vector with coords in the block of s."""
        out = linalg.zero_vector(self.action.algebra.field, len(self.labels))
        for k, c in enumerate(coords):
            if c != 0:
                out[self.index[s, k]] = c
        return out


def skew_isg_ring(act: SpectralRingAction) -> SkewRing:
    return SkewRing(act)


class SkewRealization:
    """The skew ring of a spectral action mapped into a convolution algebra.

    images(s, a) gives, for a in D_s, the pair (a_hat, arrows) with
    a_hat * chi_arrows the image of a delta_s.  map_L is the matrix of
    that map on L and map_quotient the induced matrix on L/N.  Keyword
    data of the construction (bisections, atoms, germs, sheaf) are kept
    as attributes.
    """

    def __init__(self, act: SpectralRingAction, conv: ConvAlgebra, images,
                 **data):
        self.conv = conv
        self.skew = skew_isg_ring(act)
        cols = []
        for (s, k) in self.skew.labels:
            a_hat, arrows = images(s, list(act.domain[s].basis[k]))
            cols.append(conv.algebra.mul(a_hat, conv.chi(arrows)))
        self.map_L = (linalg.transpose(cols) if cols
                      else [[] for _ in range(conv.dim)])
        self.map_quotient = linalg.mat_mul(conv.field, self.map_L,
                                           self.skew.lift)
        vars(self).update(data)

    def kills_relations(self) -> bool:
        """Does the map on L vanish on the relation ideal N?"""
        f = self.conv.field
        return all(linalg.vec_is_zero(linalg.mat_vec(f, self.map_L, list(b)))
                   for b in self.skew.N.basis)

    def is_ring_iso(self) -> bool:
        """Is the induced map L/N -> Gamma_c a unital ring isomorphism?"""
        return exactalg.check_ring_iso(self.skew.quotient, self.conv.algebra,
                                       self.map_quotient)

    def report(self, check: str, hypotheses: dict, rhs: dict) -> Report:
        """L/N is Gamma_c through the map, with the dimensions of L."""
        skew = self.skew
        kills = self.kills_relations()
        return Report(
            check=check, hypotheses=hypotheses,
            lhs={"dim L": skew.L.dim, "dim N": skew.N.dim,
                 "dim quotient": skew.quotient.dim},
            rhs=rhs, passed=kills and self.is_ring_iso(),
            witnesses={} if kills else {"relation not killed": True})


# ---------------------------------------------------------------------------
# space actions and germ groupoids


class SpaceAction:
    """Inverse semigroup acting on a finite set by partial bijections.

    domain[s] is X_s, the range of theta_s; theta[s] maps X_{s*} onto
    X_s.  The discrete topology makes every subset clopen.  The action
    must not change after its first use: its germ groupoid is kept on it.
    """

    def __init__(self, S: FiniteInverseSemigroup, points, domain: dict,
                 theta: dict, validate: bool = True):
        self.semigroup = S
        self.points = tuple(points)
        self.pos = {x: i for i, x in enumerate(self.points)}
        if len(self.pos) != len(self.points):
            raise InputError("duplicate points")
        self.domain = {s: frozenset(d) for s, d in domain.items()}
        self.theta = {s: dict(t) for s, t in theta.items()}
        if validate:
            bad = validate_space_action(self)
            if bad:
                raise InputError("invalid space action: " + bad[0])

    def source_set(self, s):
        return self.domain[self.semigroup.star[s]]


def _partial_bijection_violations(act: SpaceAction) -> list[str]:
    """The rules that space actions and partial group actions share: each
    X_s lies in the space, theta_s is a bijection from X_{s*} onto X_s
    that theta_{s*} inverts, idempotents fix their domains (an idempotent
    is its own star), and theta_s o theta_t is contained in theta_st."""
    S = act.semigroup
    X = set(act.points)
    for s in S.elements:
        if s not in act.domain or s not in act.theta:
            return [f"missing domain or theta for {s}"]
        if not act.domain[s] <= X:
            return [f"X_{s} contains unknown points"]
    for s in S.elements:
        th = act.theta[s]
        if set(th) != act.source_set(s):
            return [f"theta[{s}] is not defined exactly on X_{S.star[s]}"]
        if set(th.values()) != act.domain[s] or len(set(th.values())) != len(th):
            return [f"theta[{s}] is not a bijection onto X_{s}"]
        back = act.theta[S.star[s]]
        for x, y in th.items():
            if back.get(y) != x:
                return [f"theta[{S.star[s]}] does not invert theta[{s}]"]
    for e in S.idempotents():
        for x, y in act.theta[e].items():
            if x != y:
                return [f"theta[{e}] moves {x}"]
    for s in S.elements:
        for t in S.elements:
            st = S.mul[s, t]
            for x, y in act.theta[t].items():
                if y in act.source_set(s):
                    if x not in act.source_set(st):
                        return [f"composite of ({s},{t}) undefined at {x}"]
                    if act.theta[st][x] != act.theta[s][y]:
                        return [f"theta[{s}] o theta[{t}] != theta[{st}] at {x}"]
    return []


def validate_space_action(act: SpaceAction) -> list[str]:
    """A homomorphism into partial bijections: theta_s o theta_t is
    theta_st, so theta_st is also defined only where theta_s o theta_t
    is."""
    bad = _partial_bijection_violations(act)
    if bad:
        return bad
    S = act.semigroup
    for s in S.elements:
        for t in S.elements:
            st = S.mul[s, t]
            for x in act.source_set(st):
                if act.theta[t].get(x) not in act.source_set(s):
                    return [f"theta[{st}] is defined at {x}, where "
                            f"theta[{s}] o theta[{t}] is not"]
    return []


def action_orbits(act: SpaceAction) -> list[list]:
    """Orbit partition of the points, in input order."""
    return equivalence_classes(
        act.points, (xy for s in act.semigroup.elements
                     for xy in act.theta[s].items()))


def is_minimal_action(act: SpaceAction) -> bool:
    """Single orbit; finite-discrete stand-in for every orbit dense."""
    return len(act.points) > 0 and len(action_orbits(act)) == 1


class GermData:
    """Germ groupoid of a space action plus the pair -> arrow label map."""

    def __init__(self, groupoid: FiniteGroupoid, pair_label: dict,
                 class_members: dict):
        self.groupoid = groupoid
        self.pair_label = pair_label
        self.class_members = class_members

    def slice_labels(self, s):
        """Arrow labels of the germs [s,x] over the domain of theta_s."""
        seen = []
        for (t, x), lab in self.pair_label.items():
            if t == s and lab not in seen:
                seen.append(lab)
        return seen


def germ_groupoid(act: SpaceAction) -> GermData:
    """Arrows are germs [s,x]; verified equivalence and well-definedness.
    Built once per action.

    Identity germs (classes containing an idempotent pair) are labeled by
    their point; other classes by "s@x" with s the least representative.
    """
    return exactalg.memoized(act, "germ groupoid", _germ_groupoid)


def _germ_groupoid(act: SpaceAction) -> GermData:
    S = act.semigroup
    X = act.points
    covered = set()
    for e in S.idempotents():
        covered |= act.domain[e]
    if covered != set(X):
        raise InputError("idempotent domains do not cover the space")

    pairs = [(s, x) for s in S.elements for x in X if x in act.source_set(s)]
    leq = {(u, s): S.natural_leq(u, s)
           for u in S.elements for s in S.elements}
    below_at = {}
    for s in S.elements:
        for x in act.source_set(s):
            below_at[s, x] = frozenset(
                u for u in S.elements
                if leq[u, s] and x in act.source_set(u))

    rel = {}
    for i, p in enumerate(pairs):
        for q in pairs[i + 1:]:
            if p[1] == q[1]:
                rel[p, q] = bool(below_at[p] & below_at[q])
    class_list = equivalence_classes(pairs, [pq for pq, r in rel.items() if r])
    class_of = {p: k for k, cls in enumerate(class_list) for p in cls}
    # transitivity of the germ relation is a theorem about honest
    # actions, not an assumption about the input
    if any(class_of[p] == class_of[q] and not r for (p, q), r in rel.items()):
        raise InputError("germ relation is not transitive")
    class_list = [tuple(cls) for cls in class_list]

    idem = set(S.idempotents())
    label_of = {}
    members_of = {}
    for cls in class_list:
        x = cls[0][1]
        ranges = {act.theta[s][x] for (s, _x) in cls}
        if len(ranges) > 1:
            raise InputError("germ class has an ill-defined range")
        if any(s in idem for (s, _x) in cls):
            if ranges != {x}:
                raise InputError("identity germ moves its point")
            lab = x
        else:
            s0 = min((s for (s, _x) in cls), key=S.index.get)
            lab = f"{s0}@{x}"
            if lab in act.pos:
                raise InputError("germ label collides with a point id")
        if lab in members_of:
            raise InputError("germ labels collide")
        label_of[cls] = lab
        members_of[lab] = cls
    pair_label = {}
    for cls in class_list:
        for p in cls:
            pair_label[p] = label_of[cls]

    units = list(X)
    arrows, src, dst = [], {}, {}
    for x in units:
        arrows.append(x)
        src[x], dst[x] = x, x
    for cls in class_list:
        lab = label_of[cls]
        if lab in act.pos:
            continue
        s0, x = cls[0]
        arrows.append(lab)
        src[lab] = x
        dst[lab] = act.theta[s0][x]

    def compose_classes(c1, c2):
        out = set()
        for (t, x) in c2:
            y = act.theta[t][x]
            for (s, _y) in c1:
                if _y != y:
                    raise CheckFailure("composition pairs misaligned")
                st = S.mul[s, t]
                if x not in act.source_set(st):
                    raise InputError(
                        f"product germ [{st},{x}] is undefined")
                out.add(pair_label[st, x])
        if len(out) != 1:
            raise InputError("germ product is not well-defined")
        return out.pop()

    compose, inverse = {}, {}
    for a in arrows:
        ca = members_of[a]
        inv_labels = {pair_label[S.star[s], act.theta[s][x]] for (s, x) in ca}
        if len(inv_labels) != 1:
            raise InputError("germ inverse is not well-defined")
        inverse[a] = inv_labels.pop()
        for b in arrows:
            if src[a] != dst[b]:
                continue
            compose[a, b] = compose_classes(ca, members_of[b])

    G = FiniteGroupoid(units, arrows, src, dst, compose, inverse)
    require_valid_groupoid(G)
    return GermData(G, pair_label, members_of)


def is_topologically_free(act: SpaceAction) -> bool:
    """Fixed points of each theta_s equal the locus dominated by
    idempotents below s (interior = set in the discrete case)."""
    S = act.semigroup
    idem = S.idempotents()
    for s in S.elements:
        fixed = {x for x, y in act.theta[s].items() if x == y}
        dominated = set()
        for e in idem:
            if S.natural_leq(e, s):
                dominated |= act.domain[e]
        if fixed != dominated:
            return False
    return True


def check_cinza(act: SpaceAction) -> Report:
    """Topological freeness of the action vs effectiveness of its germs."""
    germ = germ_groupoid(act)
    lhs = is_topologically_free(act)
    rhs = is_effective(germ.groupoid)
    return Report(check="cinza", hypotheses={},
                  lhs={"topologically free": lhs},
                  rhs={"germ groupoid effective": rhs},
                  passed=lhs == rhs,
                  notes=[f"germ groupoid has {len(germ.groupoid.arrows)} arrows"])


def check_orbit_correspondence(act: SpaceAction) -> Report:
    """Action orbits coincide with germ-groupoid orbits."""
    germ = germ_groupoid(act)
    a = {frozenset(o) for o in action_orbits(act)}
    g = {frozenset(o) for o in orbits(germ.groupoid)}
    return Report(check="orbit-correspondence", hypotheses={},
                  lhs={"action orbits": sorted(sorted(o) for o in a)},
                  rhs={"germ orbits": sorted(sorted(o) for o in g)},
                  passed=a == g)


def check_simpleaction(act: SpaceAction, O: GSheafOfAlgebras | None = None,
                       p: int = 2) -> Report:
    """Minimality of a topologically free action vs simplicity of the
    convolution algebra of its germ groupoid (sheaf of fields)."""
    from .fields import GF
    germ = germ_groupoid(act)
    if O is None:
        O = constant_sheaf(germ.groupoid, exactalg.scalar_algebra(GF(p)))
    hyp = {
        "action topologically free": is_topologically_free(act),
        "sheaf of fields": is_sheaf_of_fields(O),
        "germ groupoid Hausdorff": "automatic",
    }
    if not all(v is True or v == "automatic" for v in hyp.values()):
        return skip_report("simpleaction", hyp)
    conv = build_conv_algebra(germ.groupoid, O)
    lhs = is_minimal_action(act)
    rhs = convalg.is_simple(conv)
    return Report(check="simpleaction", hypotheses=hyp,
                  lhs={"action minimal": lhs},
                  rhs={"convolution algebra simple": rhs},
                  passed=lhs == rhs)


# ---------------------------------------------------------------------------
# the convolution algebra as a skew ring of its bisection action


def bisection_ring_action(conv: ConvAlgebra, bisections):
    """Spectral action of a wide semigroup of bisections, the (semigroup,
    members) pair of bisection_semigroup, on the diagonal: D_U = sections
    supported on the range of U, moved along U's arrows.  The domains and
    maps come from the sheaf, which validate_sheaf has checked, so the
    action is not validated again; SIRI certifies what it builds."""
    G, O, f = conv.groupoid, conv.sheaf, conv.field
    Ga, member = bisections
    # the diagonal read off Gamma's table; identity arrows carry their
    # unit's id, so its labels are (unit, stalk index)
    D = conv.diagonal_subspace()
    A = exactalg.subalgebra_on(conv.algebra, D,
                               [conv.algebra.labels[k] for k in D.pivots])
    embed = linalg.transpose(D.basis)
    idx = A.label_index
    domain, alpha = {}, {}
    for lab in Ga.elements:
        U = member[lab]
        rng = {G.dst[a] for a in U}
        vecs = [A.basis_vector(idx[u, i]) for (u, i) in A.labels if u in rng]
        domain[lab] = Subspace.from_vectors(f, A.dim, vecs)
        M = linalg.zero_matrix(f, A.dim, A.dim)
        by_src = {G.src[a]: a for a in U}
        for (u, i) in A.labels:
            if u not in by_src:
                continue
            g = by_src[u]
            moved = O.apply(g, O.stalk[u].basis_vector(i))
            col = idx[u, i]
            for k, c in enumerate(moved):
                if c != 0:
                    M[idx[G.dst[g], k]][col] = c
        alpha[lab] = M
    return (SpectralRingAction(Ga, A, domain, alpha, validate=False),
            member, embed)


def siri_data(G: FiniteGroupoid, O: GSheafOfAlgebras,
              conv: ConvAlgebra | None = None) -> SkewRealization:
    """Skew ring of the bisection action, with its map into Gamma_c,
    which sends a delta_U to the convolution a * chi_U.  The semigroup
    is the wide one of arrow singletons, the unit space and the empty
    bisection (Exel 2008; Steinberg 2010).  Without conv,
    build_conv_algebra returns the Gamma_c the caller built, or builds
    it."""
    if conv is None:
        conv = build_conv_algebra(G, O)
    units = {G.unit_arrow(u) for u in G.units}
    wide = bisection_semigroup(G, generators=[{a} for a in G.arrows]
                               + [units])
    act, member, embed = bisection_ring_action(conv, wide)

    def images(U, a):
        return linalg.mat_vec(conv.field, embed, a), member[U]

    return SkewRealization(act, conv, images, member=member)


def verify_siri(G: FiniteGroupoid, O: GSheafOfAlgebras,
                conv: ConvAlgebra | None = None) -> Report:
    """The convolution algebra is the skew ring of its bisection action."""
    try:
        real = siri_data(G, O, conv)
    except CheckFailure as exc:
        return Report(check="siri", passed=False,
                      witnesses={"error": str(exc)})
    return real.report("siri", {}, {"dim conv": real.conv.dim})


# ---------------------------------------------------------------------------
# Pierce spectrum realization


def pierce_atoms(A: FDAlgebra) -> list:
    """Minimal nonzero central idempotents of a unital A, the points of
    its Pierce spectrum: exactalg.central_primitive_idempotents (certified
    orthogonal and summing to the identity), ordered by their encoded
    coefficient tuples."""
    f = A.field
    return sorted(exactalg.central_primitive_idempotents(A),
                  key=lambda v: tuple(f.encode(c) for c in v))


def pierce_data(act: SpectralRingAction) -> SkewRealization:
    """Realize the skew ring as a convolution algebra over the germ
    groupoid of the induced action on the Pierce atoms.

    Stalk at an atom e is the corner eA; the transition along a germ
    [s,e0] applies alpha_s, checked independent of the representative.
    """
    S, A = act.semigroup, act.algebra
    f = A.field
    atoms = pierce_atoms(A)
    atom_ids = [f"e{i}" for i in range(len(atoms))]
    by_vec = {tuple(e): atom_ids[i] for i, e in enumerate(atoms)}
    vec_of = {atom_ids[i]: atoms[i] for i in range(len(atoms))}

    domain, theta = {}, {}
    for s in S.elements:
        us = act.units[s]
        domain[s] = frozenset(aid for aid in atom_ids
                              if A.mul(vec_of[aid], us) == vec_of[aid])
        th = {}
        for aid in atom_ids:
            if A.mul(vec_of[aid], act.units[S.star[s]]) != vec_of[aid]:
                continue
            img = linalg.mat_vec(f, act.alpha[s], vec_of[aid])
            if tuple(img) not in by_vec:
                raise CheckFailure("atom image is not an atom")
            th[aid] = by_vec[tuple(img)]
        theta[s] = th
    space = SpaceAction(S, atom_ids, domain, theta, validate=False)
    bad = validate_space_action(space)
    if bad:
        raise CheckFailure("induced atom action invalid: " + bad[0])
    germ = germ_groupoid(space)

    corner, stalks = {}, {}
    for aid in atom_ids:
        e = vec_of[aid]
        span = Subspace.from_vectors(
            f, A.dim, [A.mul(e, A.basis_vector(i)) for i in range(A.dim)])
        corner[aid] = span
        stalks[aid] = exactalg.subalgebra_on(
            A, span, [f"{aid}.{k}" for k in range(span.dim)])
        if stalks[aid].unit is None:
            raise CheckFailure("corner ring has no unit")
    alpha = {}
    for lab in germ.groupoid.arrows:
        members = list(germ.class_members[lab])
        x0 = members[0][1]
        y0 = space.theta[members[0][0]][x0]
        mats = []
        for (s, x) in members:
            rows = []
            for b in corner[x0].basis:
                w = linalg.mat_vec(f, act.alpha[s], list(b))
                if not corner[y0].contains(w):
                    raise CheckFailure("transition escapes the target corner")
                rows.append(corner[y0].coords_of(w))
            mats.append(linalg.transpose(rows) if rows else [])
        for M in mats[1:]:
            if not linalg.mat_eq(M, mats[0]):
                raise CheckFailure(
                    "transition depends on the germ representative")
        alpha[lab] = mats[0]
    sheaf = GSheafOfAlgebras(germ.groupoid, f, stalks, alpha)
    violations, _ = validate_sheaf(sheaf)
    if violations:
        raise CheckFailure("Pierce sheaf invalid: " + violations[0])

    conv = build_conv_algebra(germ.groupoid, sheaf)

    def images(s, a):
        a_hat = linalg.zero_vector(f, conv.dim)
        for aid in atom_ids:
            val = corner[aid].coords_of(A.mul(vec_of[aid], a))
            pm = conv.point_mass(germ.groupoid.unit_arrow(aid), val)
            a_hat = linalg.vec_add(f, a_hat, pm)
        return a_hat, germ.slice_labels(s)

    return SkewRealization(act, conv, images, atoms=atoms, germ=germ,
                           sheaf=sheaf)


def pierce_verification(act: SpectralRingAction) -> Report:
    """Skew ring of a spectral action vs convolution algebra over the
    germ groupoid of the Pierce-atom action."""
    try:
        real = pierce_data(act)
    except CapExceeded as exc:
        return skip_report("pierce", {}, caps_hit=[str(exc)])
    except CheckFailure as exc:
        return Report(check="pierce", hypotheses={}, passed=False,
                      witnesses={"error": str(exc)})
    return real.report("pierce", {},
                       {"atoms": len(real.atoms),
                        "germ arrows": len(real.germ.groupoid.arrows),
                        "dim conv": real.conv.dim})


# ---------------------------------------------------------------------------
# partial group actions and the transformation groupoid


class PartialGroupAction:
    """Partial action of a finite group on a finite set.

    domain[g] is X_g, the range of theta_g: X_{g^{-1}} -> X_g; X_1 = X
    and theta_1 is the identity.  It is a space action of the group, read
    as an inverse semigroup, except that theta_g o theta_h need only be
    contained in theta_gh (Exel 2008).
    """

    def __init__(self, elements, mul: dict, unit, points, domain: dict,
                 theta: dict, validate: bool = True):
        self.elements = tuple(elements)
        self.mul = dict(mul)
        self.unit = unit
        self.points = tuple(points)
        self.pos = {x: i for i, x in enumerate(self.points)}
        self.domain = {g: frozenset(d) for g, d in domain.items()}
        self.theta = {g: dict(t) for g, t in theta.items()}
        self.inv = {}
        if validate:
            bad = validate_partial_group_action(self)
            if bad:
                raise InputError("invalid partial action: " + bad[0])


def validate_partial_group_action(act: PartialGroupAction) -> list[str]:
    """The group axioms, X_1 = X, and the partial-bijection rules of a
    space action of the group."""
    elems = act.elements
    if len(set(elems)) != len(elems):
        return ["duplicate group elements"]
    if act.unit not in elems:
        return ["group unit missing"]
    # an inverse semigroup in which a a* = 1 = a* a for every a is a group
    # with unit 1, so associativity is checked once, as a semigroup's
    for a in elems:
        invs = [b for b in elems
                if act.mul.get((a, b)) == act.unit == act.mul.get((b, a))]
        if len(invs) != 1:
            return [f"no unique inverse for {a}"]
        act.inv[a] = invs[0]
    bad = (validate_inverse_semigroup(group_as_inverse_semigroup(act))
           or _partial_bijection_violations(_space_action(act)))
    if bad:
        return bad
    if act.domain[act.unit] != set(act.points):
        return ["X_1 is not the whole space"]
    return []


def group_as_inverse_semigroup(act: PartialGroupAction) -> FiniteInverseSemigroup:
    """The group of a validated partial action, star the inverse."""
    return FiniteInverseSemigroup(act.elements, act.mul, act.inv,
                                  validate=False)


def _space_action(act: PartialGroupAction) -> SpaceAction:
    return SpaceAction(group_as_inverse_semigroup(act), act.points,
                       act.domain, act.theta, validate=False)


def transformation_groupoid(act: PartialGroupAction) -> FiniteGroupoid:
    """The germ groupoid of act as a space action of its group.  In a
    group u <= s only when u = s, so the arrows are the pairs (g, x) with
    x in X_{g^{-1}}: source x, range theta_g(x), labeled x when g = 1 and
    "g@x" otherwise, with (h, theta_g(x)) (g, x) = (hg, x)."""
    return germ_groupoid(_space_action(act)).groupoid


def dual_ring_action(act: PartialGroupAction, field: Field):
    """The induced partial action on functions X -> field: D_g is the
    functions vanishing off X_g and alpha_g(f) = f o theta_{g^{-1}}.

    Like act, it is a partial action: alpha_g o alpha_h is only contained
    in alpha_gh, so validate_ring_action, which asks for the homomorphism
    law, does not apply.  Its axioms are those of act, which
    validate_partial_group_action checked; verify_partial_crossed
    certifies the ring it builds."""
    S = group_as_inverse_semigroup(act)
    f = field
    X = act.points
    pos = act.pos
    labels = list(X)
    table = []
    for x in X:
        row = []
        for y in X:
            v = linalg.zero_vector(f, len(X))
            if x == y:
                v[pos[x]] = f.one
            row.append(v)
        table.append(row)
    A = FDAlgebra(f, labels, table, [f.one] * len(X))
    domain, alpha = {}, {}
    for g in act.elements:
        vecs = [A.basis_vector(pos[x]) for x in X if x in act.domain[g]]
        domain[g] = Subspace.from_vectors(f, len(X), vecs)
        M = linalg.zero_matrix(f, len(X), len(X))
        for x, y in act.theta[g].items():
            M[pos[y]][pos[x]] = f.one
        alpha[g] = M
    return SpectralRingAction(S, A, domain, alpha, validate=False)


def verify_partial_crossed(act: PartialGroupAction, field: Field) -> Report:
    """Partial skew group ring vs convolution algebra of the
    transformation groupoid, over an exact field.

    Also re-verifies the transformation groupoid's own convolution
    algebra as the skew ring of its bisection action.
    """
    germ = germ_groupoid(_space_action(act))
    G = germ.groupoid
    O = constant_sheaf(G, exactalg.scalar_algebra(field))
    conv = build_conv_algebra(G, O)

    def images(g, a):
        a_hat = linalg.zero_vector(field, conv.dim)
        for x in act.points:
            a_hat[conv.algebra.label_index[G.unit_arrow(x), 0]] = a[act.pos[x]]
        return a_hat, germ.slice_labels(g)

    real = SkewRealization(dual_ring_action(act, field), conv, images)
    if not real.skew.N.is_zero():
        raise CheckFailure("group-indexed relation ideal is nonzero")
    iso = real.is_ring_iso()

    sub = verify_siri(G, O, conv)
    return Report(
        check="partial-crossed", hypotheses={},
        lhs={"dim skew ring": real.skew.quotient.dim},
        rhs={"groupoid arrows": len(G.arrows), "dim conv": conv.dim},
        passed=iso and sub.passed,
        notes=[f"bisection-action realization of the transformation "
               f"groupoid: {sub.status}"])

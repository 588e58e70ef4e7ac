"""Sheaves of unital algebras over a finite groupoid.

A sheaf here assigns a unital algebra stalk to every unit and an
invertible unital ring isomorphism alpha[gamma]: stalk(src gamma) ->
stalk(dst gamma) to every arrow, functorially.  At finite scale with the
discrete topology the gluing axioms are automatic: sections over a set
of units are exactly tuples of stalk elements, restriction is
projection.  The validator records those as "automatic" rather than
skipping them silently.
"""

from __future__ import annotations

from . import exactalg, linalg
from .errors import InputError
from .exactalg import FDAlgebra
from .fields import Field
from .groupoid import FiniteGroupoid

class GSheafOfAlgebras:
    """Stalks and transition maps over a groupoid.

    The sheaf, its stalks and its maps must not change after the first
    validation: the verdict is kept on the sheaf, and so are weak
    references to the convolution algebras built from it (see
    convalg.build_conv_algebra).
    """

    def __init__(self, groupoid: FiniteGroupoid, field: Field, stalks, alpha):
        self.groupoid = groupoid
        self.field = field
        self.stalk = dict(stalks)
        self.alpha = {a: [list(r) for r in m] for a, m in alpha.items()}

    def apply(self, arrow, v):
        return linalg.mat_vec(self.field, self.alpha[arrow], v)

    def __repr__(self):
        dims = sorted({A.dim for A in self.stalk.values()})
        return f"GSheaf(stalk dims {dims} over {self.groupoid!r})"


def validate_sheaf(O: GSheafOfAlgebras):
    """(violations, axiom_report).

    axiom_report lists (axiom, status) pairs where status is "checked" or
    "automatic"; the gluing/restriction axioms hold for free over a finite
    discrete unit space and are recorded, not silently dropped.
    """
    G = O.groupoid
    bad = []
    report = []
    for u in G.units:
        if u not in O.stalk:
            bad.append(f"unit {u} has no stalk")
            continue
        A = O.stalk[u]
        if A.field != O.field:
            bad.append(f"stalk at {u} is over {A.field!r}, sheaf says {O.field!r}")
        if A.unit is None:
            bad.append(f"stalk at {u} has no identity")
        bad.extend(f"stalk at {u}: {m}" for m in exactalg.validate_algebra(A))
    for a in G.arrows:
        if a not in O.alpha:
            bad.append(f"arrow {a} has no transition map")
    if bad:
        return bad, report

    f = O.field
    for a in G.arrows:
        M = O.alpha[a]
        A_src, A_dst = O.stalk[G.src[a]], O.stalk[G.dst[a]]
        if len(M) != A_dst.dim or any(len(r) != A_src.dim for r in M):
            bad.append(f"alpha[{a}] has the wrong shape")
    if bad:
        return bad, report

    # (S1) identity arrows act as the identity
    for u in G.units:
        e = G.unit_arrow(u)
        if not linalg.mat_eq(O.alpha[e], linalg.identity_matrix(f, O.stalk[u].dim)):
            bad.append(f"alpha[{e}] is not the identity on the stalk at {u}")
    report.append(("S1 identity arrows act trivially", "checked"))
    report.append(("S2 sections restrict along open inclusions", "automatic"))

    # (S3) functoriality on composable pairs
    for (b, r), br in G.compose.items():
        lhs = linalg.mat_mul(f, O.alpha[b], O.alpha[r])
        if not linalg.mat_eq(lhs, O.alpha[br]):
            bad.append(f"alpha[{b}] o alpha[{r}] != alpha[{br}]")
    report.append(("S3 alpha(beta) o alpha(rho) = alpha(beta rho)", "checked"))

    report.append(("SR1 stalkwise addition", "automatic"))
    report.append(("SR2 stalkwise multiplication", "automatic"))
    report.append(("SR3 units glue to the constant section 1", "automatic"))

    # (SR4) each alpha[gamma] is a unital ring isomorphism
    for a in G.arrows:
        M = O.alpha[a]
        A_src, A_dst = O.stalk[G.src[a]], O.stalk[G.dst[a]]
        if linalg.rank(f, M) != A_src.dim or A_src.dim != A_dst.dim:
            bad.append(f"alpha[{a}] is not bijective")
            continue
        for i in range(A_src.dim):
            for j in range(A_src.dim):
                lhs = linalg.mat_vec(f, M, list(A_src.table[i][j]))
                rhs = A_dst.mul(linalg.mat_vec(f, M, A_src.basis_vector(i)),
                                linalg.mat_vec(f, M, A_src.basis_vector(j)))
                if lhs != rhs:
                    bad.append(f"alpha[{a}] is not multiplicative on "
                               f"basis pair ({i},{j})")
        if linalg.mat_vec(f, M, list(A_src.unit)) != list(A_dst.unit):
            bad.append(f"alpha[{a}] does not preserve the identity")
    report.append(("SR4 transition maps are unital ring isomorphisms", "checked"))
    return bad, report


def require_valid_sheaf(O: GSheafOfAlgebras) -> None:
    """Raise InputError unless O is a sheaf, validated once per object."""
    bad = exactalg.memoized(O, "violations", lambda O: validate_sheaf(O)[0])
    if bad:
        raise InputError("; ".join(bad[:3]))


def constant_sheaf(G: FiniteGroupoid, A: FDAlgebra) -> GSheafOfAlgebras:
    """Every stalk A, every transition the identity."""
    if A.unit is None:
        raise InputError("constant sheaf needs a unital stalk")
    eye = linalg.identity_matrix(A.field, A.dim)
    return GSheafOfAlgebras(G, A.field, {u: A for u in G.units},
                            {a: eye for a in G.arrows})


def ker_sheaf(O: GSheafOfAlgebras) -> list:
    """Isotropy arrows acting as the identity on their stalk.

    An open subgroupoid of Iso(G) containing the units; verified closed
    under composition and inversion.
    """
    G = O.groupoid
    f = O.field
    out = []
    for a in G.iso_bundle():
        d = O.stalk[G.src[a]].dim
        if linalg.mat_eq(O.alpha[a], linalg.identity_matrix(f, d)):
            out.append(a)
    member = set(out)
    for u in G.units:
        if G.unit_arrow(u) not in member:
            raise InputError("kernel of the sheaf misses an identity arrow")
    for a in out:
        if G.inverse[a] not in member:
            raise InputError("kernel of the sheaf is not closed under inversion")
        for b in out:
            if G.composable(a, b) and G.compose[a, b] not in member:
                raise InputError("kernel of the sheaf is not closed under composition")
    return out


def int_ker_is_units(O: GSheafOfAlgebras) -> bool:
    """Interior of the kernel equals the unit space.

    Discrete topology: the interior is the kernel itself, so this says the
    only arrows acting trivially are the identity arrows.
    """
    G = O.groupoid
    return set(ker_sheaf(O)) == {G.unit_arrow(u) for u in G.units}


def is_field_algebra(A: FDAlgebra) -> bool:
    """Is the stalk algebra a field?  See exactalg.is_field."""
    return exactalg.is_field(A)


def is_sheaf_of_fields(O: GSheafOfAlgebras) -> bool:
    return all(is_field_algebra(O.stalk[u]) for u in O.groupoid.units)


def diagonal_vnr(O: GSheafOfAlgebras):
    """(flag, witness) for von Neumann regularity of the diagonal.

    The diagonal is the product of the stalks, so it is regular exactly
    when every stalk is, that is, when every stalk has zero radical
    (exactalg.is_von_neumann_regular).  A witness is (unit, element) with
    no solution of a x a = a in that stalk.
    """
    for u in O.groupoid.units:
        ok, wit = exactalg.is_von_neumann_regular(O.stalk[u])
        if not ok:
            return False, {"unit": u,
                           "element": [O.field.encode(c) for c in wit]}
    return True, None


def stalks_commutative(O: GSheafOfAlgebras) -> bool:
    return all(O.stalk[u].is_commutative() for u in O.groupoid.units)

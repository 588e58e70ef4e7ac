"""Convolution algebras of finite groupoids with sheaf coefficients.

The algebra of compactly supported sections f with f(gamma) in the stalk
at dst(gamma), under convolution

    (f * g)(gamma) = sum over beta rho = gamma of f(beta) alpha_beta(g(rho)).

On point masses a.delta_beta this is (a alpha_beta(b)).delta_{beta rho}
when src(beta) = dst(rho) and 0 otherwise; the identity is the
characteristic function of the unit space.  Basis labels are pairs
(arrow, stalk basis index).
"""

from __future__ import annotations

import weakref

from . import exactalg, linalg, sheaf as sheafmod
from .errors import CapExceeded, CheckFailure
from .exactalg import FDAlgebra, Subspace
from .groupoid import FiniteGroupoid, is_minimal, orbits
from .reports import Report
from .sheaf import GSheafOfAlgebras


class ConvAlgebra:
    """Gamma_c(G, O) with its distinguished point-mass basis."""

    def __init__(self, groupoid: FiniteGroupoid, sheaf: GSheafOfAlgebras,
                 algebra: FDAlgebra):
        self.groupoid = groupoid
        self.sheaf = sheaf
        self.algebra = algebra

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

    def point_mass(self, arrow, stalk_vector):
        """Coordinates of the section supported on one arrow."""
        v = linalg.zero_vector(self.field, self.dim)
        for i, c in enumerate(stalk_vector):
            if c != 0:
                v[self.algebra.label_index[arrow, i]] = c
        return v

    def value_at(self, vec, arrow):
        """The stalk value of a section at one arrow."""
        d = self.sheaf.stalk[self.groupoid.dst[arrow]].dim
        index = self.algebra.label_index
        return [vec[index[arrow, i]] for i in range(d)]

    def support(self, vec) -> list:
        """Arrows where the section is nonzero."""
        out = []
        for a in self.groupoid.arrows:
            if not linalg.vec_is_zero(self.value_at(vec, a)):
                out.append(a)
        return out

    def chi(self, arrows):
        """Characteristic function: stalk identity on each given arrow."""
        v = linalg.zero_vector(self.field, self.dim)
        for a in arrows:
            one = self.sheaf.stalk[self.groupoid.dst[a]].unit
            for i, c in enumerate(one):
                if c != 0:
                    k = self.algebra.label_index[a, i]
                    v[k] = self.field.add(v[k], c)
        return v

    def diagonal_subspace(self) -> Subspace:
        """Sections supported on identity arrows; their point masses, in
        basis order, are an echelon basis as they stand."""
        A, G = self.algebra, self.groupoid
        on = [k for k, (a, _) in enumerate(A.labels) if G.is_unit_arrow(a)]
        return Subspace(A.field, A.dim, [A.basis_vector(k) for k in on], on)


def build_conv_algebra(G: FiniteGroupoid, O: GSheafOfAlgebras,
                       validate: bool = True) -> ConvAlgebra:
    """Construct Gamma_c(G, O) from structure constants.

    With validate, the sheaf and the algebra are certified, and the
    certified algebra is returned again for the same objects G and O
    while it is alive.  Without validate a fresh copy is built.
    """
    if not validate:
        return _build(O, G, False)
    # held weakly, because the algebra refers to O and a strong reference
    # on O would make a cycle that only the garbage collector frees; a
    # live algebra keeps G alive, so the id of G is not reused
    built = vars(O).setdefault("_conv_algebras", weakref.WeakValueDictionary())
    conv = built.get(id(G))
    if conv is None:
        conv = built[id(G)] = _build(O, G, True)
    return conv


def _build(O: GSheafOfAlgebras, G: FiniteGroupoid, validate: bool) -> ConvAlgebra:
    if validate:
        sheafmod.require_valid_sheaf(O)
    f = O.field
    labels = []
    for a in G.arrows:
        for i in range(O.stalk[G.dst[a]].dim):
            labels.append((a, i))
    dim = len(labels)
    index = {lab: k for k, lab in enumerate(labels)}
    table = []
    for (beta, i) in labels:
        row = []
        stalk_b = O.stalk[G.dst[beta]]
        for (rho, j) in labels:
            v = linalg.zero_vector(f, dim)
            if G.composable(beta, rho):
                moved = O.apply(beta, O.stalk[G.dst[rho]].basis_vector(j))
                prod = stalk_b.mul(stalk_b.basis_vector(i), moved)
                target = G.compose[beta, rho]
                for k, c in enumerate(prod):
                    if c != 0:
                        v[index[target, k]] = c
            row.append(v)
        table.append(row)
    unit = linalg.zero_vector(f, dim)
    for u in G.units:
        e = G.unit_arrow(u)
        for k, c in enumerate(O.stalk[u].unit):
            if c != 0:
                unit[index[e, k]] = c
    A = FDAlgebra(f, labels, table, unit)
    conv = ConvAlgebra(G, O, A)
    if validate:
        bad = exactalg.validate_algebra(A)
        if bad:
            raise CheckFailure("convolution algebra fails algebra axioms: " + bad[0])
        expected = sum(O.stalk[G.dst[a]].dim for a in G.arrows)
        if A.dim != expected:
            raise CheckFailure("convolution algebra has the wrong dimension")
    return conv


def convolution_eval(conv: ConvAlgebra, fvec, gvec):
    """Pointwise re-evaluation of the defining convolution sum.

    Independent of the structure-constant table: sums f(beta)
    alpha_beta(g(rho)) over the composable pairs with beta in the
    support of f and rho in the support of g, using only stalk products
    and the transition maps.
    """
    G = conv.groupoid
    O = conv.sheaf
    f = conv.field
    labels, index = conv.algebra.labels, conv.algebra.label_index

    def support(vec):
        return dict.fromkeys(labels[k][0] for k, c in enumerate(vec) if c != 0)

    out = linalg.zero_vector(f, conv.dim)
    rhos = support(gvec)
    for beta in support(fvec):
        stalk = O.stalk[G.dst[beta]]
        a = conv.value_at(fvec, beta)
        for rho in rhos:
            if not G.composable(beta, rho):
                continue
            term = stalk.mul(a, O.apply(beta, conv.value_at(gvec, rho)))
            gamma = G.compose[beta, rho]
            for k, c in enumerate(term):
                if c != 0:
                    idx = index[gamma, k]
                    out[idx] = f.add(out[idx], c)
    return out


def check_convolution_table(conv: ConvAlgebra) -> Report:
    """Structure constants against the defining sum, all basis pairs."""
    A = conv.algebra
    ok = True
    witness = {}
    for i in range(A.dim):
        for j in range(A.dim):
            ei, ej = A.basis_vector(i), A.basis_vector(j)
            direct = list(A.table[i][j])
            summed = convolution_eval(conv, ei, ej)
            if direct != summed:
                ok = False
                witness = {"pair": [repr(A.labels[i]), repr(A.labels[j])]}
                break
        if not ok:
            break
    return Report(check="convolution-table", hypotheses={}, lhs="structure constants",
                  rhs="pointwise convolution sum", passed=ok, witnesses=witness)


def check_bisection_convolution(conv: ConvAlgebra) -> Report:
    """chi_U * chi_V = chi_{UV} for all bisections U, V.

    Checked on every pair of arrows: chi_{a} * chi_{b} is chi_{ab}, or 0
    when a and b do not compose.  For bisections U and V the composable
    pairs (a, b) in U x V have distinct products, so the pairs cover all
    bisections by bilinearity: chi_U * chi_V = sum chi_{ab} = chi_{UV}.
    """
    G = conv.groupoid
    chi = {a: conv.chi([a]) for a in G.arrows}
    zero = linalg.zero_vector(conv.field, conv.dim)
    witness = {}
    for a in G.arrows:
        for b in G.arrows:
            rhs = chi[G.compose[a, b]] if G.composable(a, b) else zero
            if conv.algebra.mul(chi[a], chi[b]) != rhs:
                witness = {"U": [a], "V": [b]}
                break
        if witness:
            break
    return Report(check="bisection-convolution", hypotheses={},
                  lhs="chi_U * chi_V", rhs="chi_{UV}", passed=not witness,
                  witnesses=witness)


# ---------------------------------------------------------------------------
# the orbit corner


def isotropy_corner(conv: ConvAlgebra, units) -> tuple[Subspace, FDAlgebra]:
    """The span of the point masses on the isotropy arrows at the given
    units, and its algebra structure read off Gamma's certified table.

    The point masses, in basis order, are an echelon basis as they stand.
    The algebra's labels are (stalk index, isotropy arrow), in Gamma's
    arrow-major order.  With no arrow between two of the units, the span
    is the corner e Gamma e for e the sum of their 1_x.
    """
    A, G = conv.algebra, conv.groupoid
    loops = {a for x in units for a in G.isotropy_arrows(x)}
    on = [k for k, (a, _) in enumerate(A.labels) if a in loops]
    S = Subspace(A.field, A.dim, [A.basis_vector(k) for k in on], on)
    return S, exactalg.subalgebra_on(A, S, [A.labels[k][::-1] for k in on])


class OrbitCorner:
    """The corner e Gamma_c e for e = sum of 1_x over the given units x.

    With one unit per orbit, an arrow between two of them is a loop, so
    the corner is the sum of the isotropy rings B_x (isotropy_corner).
    The corner must be full, Gamma e Gamma = Gamma, certified by one
    ideal generation; then I -> eIe is a lattice isomorphism from the
    ideals of Gamma onto those of the corner, with inverse
    K -> Gamma K Gamma, and the corner is Morita equivalent to Gamma
    (Clark-Sims 2015).  The methods take Gamma's algebra and certify
    each answer; the corner holds no reference to Gamma, so a memo of it
    on the convolution algebra makes no reference cycle.
    """

    def __init__(self, conv: ConvAlgebra, units):
        A, G = conv.algebra, conv.groupoid
        self.e = conv.chi([G.unit_arrow(x) for x in units])
        if not exactalg.ideal_generated(A, [self.e],
                                        stop_at_full=True).is_full():
            raise CheckFailure("the orbit corner is not full: "
                               "Gamma e Gamma != Gamma")
        self.space, self.algebra = isotropy_corner(conv, units)

    def lift(self, A: FDAlgebra, K: Subspace) -> Subspace:
        """Gamma K Gamma for a subspace K of the corner."""
        gens = []
        for v in K.basis:
            w = linalg.zero_vector(A.field, A.dim)
            for k, c in zip(self.space.pivots, v):
                w[k] = c
            gens.append(w)
        return exactalg.ideal_generated(A, gens)

    def cut(self, A: FDAlgebra, I: Subspace) -> Subspace:
        """eIe in the corner's coordinates."""
        e = self.e
        return Subspace.from_vectors(A.field, self.algebra.dim, [
            self.space.coords_of(A.mul(A.mul(e, list(v)), e)) for v in I.basis])

    def ideals(self, A: FDAlgebra) -> list[Subspace]:
        """The ideals Gamma K Gamma over the ideals K of the corner, sorted
        by (dim, basis).  Each must cut back to its K, so the lifts are
        distinct, and every ideal I of Gamma is the lift of eIe."""
        corner_ideals = exactalg.enumerate_two_sided_ideals(self.algebra)
        lifts = {}
        for K in corner_ideals:
            I = self.lift(A, K)
            if self.cut(A, I) != K:
                raise CheckFailure("a corner ideal K has e (Gamma K Gamma) e != K")
            lifts.setdefault(I.basis, I)
        if len(lifts) != len(corner_ideals):
            raise CheckFailure("two corner ideals lift to the same ideal")
        return sorted(lifts.values(), key=Subspace.sort_key)

    def is_simple(self, A: FDAlgebra) -> bool:
        """Gamma is simple iff its full corner is: on two orbits the units
        are central idempotents of the corner, so one orbit is needed."""
        return exactalg.is_simple(self.algebra)

    def radical(self, A: FDAlgebra) -> Subspace:
        """J = Gamma J(eGe) Gamma, with J(eGe) certified by
        exactalg.jacobson_radical.  J must be nilpotent, so J lies in
        J(Gamma), and eJe must be J(eGe); then Gamma/J has the full
        semisimple corner eGe/J(eGe), so Gamma/J is semisimple and J
        contains J(Gamma)."""
        JB = exactalg.jacobson_radical(self.algebra)
        J = self.lift(A, JB)
        if self.cut(A, J) != JB:
            raise CheckFailure("e J e is not the radical of the corner")
        if not exactalg.is_nilpotent(A, J):
            raise CheckFailure("the lifted corner radical is not nilpotent")
        return J


def orbit_corner(conv: ConvAlgebra) -> OrbitCorner | None:
    """The orbit corner over the first unit of each orbit, built once per
    convolution algebra; None when the whole algebra answers instead.
    That is over the rationals, whose corner questions are not decided
    yet, and when the corner is all of Gamma: a group algebra is its own
    corner."""
    return exactalg.memoized(conv, "orbit corner", _orbit_corner)


def _orbit_corner(conv: ConvAlgebra) -> OrbitCorner | None:
    G = conv.groupoid
    if not conv.field.is_finite:
        return None
    units = [orbit[0] for orbit in orbits(G)]
    dim = sum(len(G.isotropy_arrows(x)) * conv.sheaf.stalk[x].dim for x in units)
    return OrbitCorner(conv, units) if dim < conv.dim else None


def two_sided_ideals(conv: ConvAlgebra) -> list[Subspace]:
    """exactalg.enumerate_two_sided_ideals of Gamma, answered on its orbit
    corner when there is one and remembered as the algebra's own answer."""
    corner = orbit_corner(conv)
    if corner is None:
        return exactalg.enumerate_two_sided_ideals(conv.algebra)
    return list(exactalg.memoized(conv.algebra, "ideals", corner.ideals))


def is_simple(conv: ConvAlgebra) -> bool:
    """exactalg.is_simple of Gamma, through its orbit corner as above."""
    corner = orbit_corner(conv)
    if corner is None:
        return exactalg.is_simple(conv.algebra)
    return exactalg.memoized(conv.algebra, "simple", corner.is_simple)


def jacobson_radical(conv: ConvAlgebra) -> Subspace:
    """exactalg.jacobson_radical of Gamma, through its orbit corner as
    above."""
    corner = orbit_corner(conv)
    if corner is None:
        return exactalg.jacobson_radical(conv.algebra)
    return exactalg.memoized(conv.algebra, "radical", corner.radical)


# ---------------------------------------------------------------------------
# centralizer of the diagonal


def centralizer_of_diagonal(conv: ConvAlgebra) -> Subspace:
    """Centralizer of the unit-space sections inside Gamma_c.

    For commutative stalks every centralizing section is supported on the
    isotropy bundle; for stalks that are fields (finite integral domains)
    the centralizer is exactly the span of sections supported on the
    kernel of the sheaf.  Both facts are asserted whenever their
    hypotheses hold.  Computed once per convolution algebra.
    """
    return exactalg.memoized(conv, "diagonal centralizer", _centralizer_of_diagonal)


def _centralizer_of_diagonal(conv: ConvAlgebra) -> Subspace:
    D = conv.diagonal_subspace()
    # a groupoid of units has the whole algebra as its diagonal
    C = (exactalg._centre(conv.algebra) if D.is_full()
         else exactalg.centralizer(conv.algebra, D))
    G = conv.groupoid
    if sheafmod.stalks_commutative(conv.sheaf):
        iso = set(G.iso_bundle())
        for v in C.basis:
            outside = [a for a in conv.support(list(v)) if a not in iso]
            if outside:
                raise CheckFailure(
                    f"diagonal centralizer escapes the isotropy bundle at {outside[0]}")
    try:
        fields = sheafmod.is_sheaf_of_fields(conv.sheaf)
    except CapExceeded:
        fields = False
    if fields:
        ker = set(sheafmod.ker_sheaf(conv.sheaf))
        vecs = []
        for a in G.arrows:
            if a in ker:
                stalk = conv.sheaf.stalk[G.dst[a]]
                for i in range(stalk.dim):
                    vecs.append(conv.point_mass(a, stalk.basis_vector(i)))
        span = Subspace.from_vectors(conv.field, conv.dim, vecs)
        if span != C:
            raise CheckFailure("diagonal centralizer is not the span of "
                               "kernel-supported sections")
    return C


def is_diagonal_masa(conv: ConvAlgebra) -> bool:
    """Is the diagonal maximal commutative: centralizer == diagonal?"""
    return centralizer_of_diagonal(conv) == conv.diagonal_subspace()


def check_masa_criterion(conv: ConvAlgebra) -> Report:
    """masa <=> the kernel of the sheaf is reduced to the units.

    Holds for sheaves of fields (and, finitely, of integral domains);
    skipped otherwise.
    """
    def decide(conv):
        masa = is_diagonal_masa(conv)
        intker = sheafmod.int_ker_is_units(conv.sheaf)
        return dict(lhs={"diagonal is masa": masa},
                    rhs={"kernel interior is the unit space": intker},
                    passed=(masa == intker))

    return _dictionary_check("masa-criterion", conv.groupoid, conv.sheaf,
                             conv, False, decide)


def check_uniqueness_theorem(conv: ConvAlgebra) -> Report:
    """Every nonzero ideal meets the centralizer of the diagonal.

    Equivalent finite form of injectivity-detection on the centralizer:
    a homomorphism out of Gamma_c is injective iff it is injective on the
    diagonal's centralizer.
    """
    try:
        ideals = two_sided_ideals(conv)
    except CapExceeded as exc:
        return Report(check="uniqueness", hypotheses={}, passed=None, caps_hit=[str(exc)])
    C = centralizer_of_diagonal(conv)
    misses = []
    for I in ideals:
        if I.is_zero():
            continue
        if I.intersect(C).is_zero():
            misses.append(I)
    rep = Report(check="uniqueness", hypotheses={},
                 lhs=f"{sum(1 for I in ideals if not I.is_zero())} nonzero ideals",
                 rhs="all meet the diagonal centralizer",
                 passed=not misses)
    if misses:
        rep.witnesses["ideal_dim"] = misses[0].dim
    return rep


# ---------------------------------------------------------------------------
# dictionary checks: dynamics <-> algebra


def _dictionary_check(check: str, G: FiniteGroupoid, O: GSheafOfAlgebras,
                      conv: ConvAlgebra | None, with_masa: bool, decide,
                      notes=()) -> Report:
    """The hypothesis/cap preamble shared by the dictionary checks.

    The stalks must be fields and, with_masa, the diagonal a masa; when
    conv is not given, build_conv_algebra returns the one the caller
    built, or builds it.  A failed hypothesis, or a cap hit in the field
    test or in decide, gives a skip.  decide(conv) returns the lhs, rhs,
    passed and witnesses fields of the report.
    """
    try:
        fields = sheafmod.is_sheaf_of_fields(O)
        caps = []
    except CapExceeded as exc:
        fields = False
        caps = [str(exc)]
    if conv is None and fields:
        conv = build_conv_algebra(G, O)
    hyp = {"stalks are fields": fields}
    if with_masa:
        hyp["diagonal is masa"] = fields and is_diagonal_masa(conv)
    if not all(hyp.values()):
        return Report(check=check, hypotheses=hyp, passed=None,
                      caps_hit=caps, notes=list(notes))
    try:
        decided = decide(conv)
    except CapExceeded as exc:
        return Report(check=check, hypotheses=hyp, passed=None,
                      caps_hit=[str(exc)], notes=list(notes))
    return Report(check=check, hypotheses=hyp, notes=list(notes), **decided)


def check_simplelife(G: FiniteGroupoid, O: GSheafOfAlgebras,
                     conv: ConvAlgebra | None = None) -> Report:
    """Simplicity dictionary for sheaves of fields:

        Gamma_c(G, O) simple  <=>  G minimal and the kernel of O is
                                   reduced to the unit space.
    """
    def decide(conv):
        simple = is_simple(conv)
        minimal = is_minimal(G)
        intker = sheafmod.int_ker_is_units(O)
        return dict(lhs={"simple": simple},
                    rhs={"minimal": minimal, "kernel is units": intker},
                    passed=(simple == (minimal and intker)))

    return _dictionary_check("simplicity-dictionary", G, O, conv, False,
                             decide)


def check_primitivity(G: FiniteGroupoid, O: GSheafOfAlgebras,
                      conv: ConvAlgebra | None = None) -> Report:
    """Primitivity dictionary under a masa diagonal of a sheaf of fields:

        Gamma_c primitive  <=>  G has a dense orbit.

    Finite reduction, recorded in the notes: a finite-dimensional algebra
    is Artinian, so primitive means simple (Wedderburn); a dense orbit in
    a finite discrete unit space is an orbit meeting every unit, i.e.
    minimality.
    """
    def decide(conv):
        simple = is_simple(conv)
        minimal = is_minimal(G)
        return dict(lhs={"primitive (= simple)": simple},
                    rhs={"dense orbit (= minimal)": minimal},
                    passed=(simple == minimal))

    return _dictionary_check(
        "primitivity-dictionary", G, O, conv, True, decide,
        ["finite reduction: primitive <=> simple (Artinian, Wedderburn)",
         "finite reduction: dense orbit <=> single orbit"])


def check_semiprimitivity(G: FiniteGroupoid, O: GSheafOfAlgebras,
                          conv: ConvAlgebra | None = None, seed: int = 0) -> Report:
    """Sheaf of fields with masa diagonal => zero Jacobson radical.

    seed is accepted for compatibility and changes no answer."""
    def decide(conv):
        J = jacobson_radical(conv)
        return dict(lhs={"radical dim": J.dim}, rhs={"radical dim": 0},
                    passed=J.is_zero(),
                    witnesses={} if J.is_zero() else {
                        "radical_basis": [list(map(conv.field.encode, r))
                                          for r in J.basis]})

    return _dictionary_check("semiprimitivity", G, O, conv, True, decide)

"""Exhaustive oracles and reference constructions that pin down the
structural routines in tests.

Each scan is sound and complete over a finite base field but walks every
element or every projective point, so the package itself never calls
them: they exist to be compared with the engine on algebras small enough
to enumerate.  The reference constructions at the bottom build, the long
way, objects that the package reaches by a shorter route.
"""

from gsheaf import exactalg, linalg
from gsheaf.convalg import ConvAlgebra
from gsheaf.errors import (AlgebraError, CapExceeded, CheckFailure,
                           InputError)
from gsheaf.exactalg import (AlgebraModule, FDAlgebra, Subspace,
                             _join_closure, ideal_generated,
                             projective_points)
from gsheaf.groupoid import FiniteGroupoid
from gsheaf.induction import InductionMap, ModuleStalks
from gsheaf.isgring import FiniteInverseSemigroup

VNR_ORDER_CAP = 2**16


def is_simple_module(M: AlgebraModule) -> bool:
    """The irreducibility engine asked of M as it stands: on a module
    Ind_x(S) it scans the induced module's points, where
    induction.induced_simplicity_witness scans only those of S."""
    return exactalg.module_simplicity_witness(M) is None


def vnr_scan(A: FDAlgebra):
    """(flag, witness): every a has x with a x a = a; the witness is the
    first element, in A.elements() order, with no such x."""
    if not A.field.is_finite:
        raise CapExceeded("von Neumann regularity scan needs a finite base field")
    if A.order() > VNR_ORDER_CAP:
        raise CapExceeded(f"von Neumann regularity scan capped at order {VNR_ORDER_CAP}")
    f = A.field
    for a in A.elements():
        a = list(a)
        M = linalg.mat_mul(f, A.left_mult_matrix(a), A.right_mult_matrix(a))
        if linalg.solve(f, M, a) is None:
            return False, tuple(a)
    return True, None


def scan_simplicity_witness(A: FDAlgebra):
    """The first projective point generating a proper two-sided ideal, or
    None when every point generates A, at (p^n - 1)/(p - 1) ideal
    generations."""
    for v in projective_points(A.field, A.dim):
        if not ideal_generated(A, [v], stop_at_full=True).is_full():
            return tuple(v)
    return None


def scan_two_sided_ideals(A: FDAlgebra) -> list[Subspace]:
    """The join-closure of the cyclic ideals of all projective points of
    A, at (p^n - 1)/(p - 1) ideal generations."""
    cyclics: dict[tuple, Subspace] = {}
    for v in projective_points(A.field, A.dim):
        I = ideal_generated(A, [v])
        cyclics.setdefault(I.basis, I)
    return _join_closure(A, cyclics)


def scan_inverse_semigroup(S: FiniteInverseSemigroup) -> list[str]:
    """The inverse semigroup axioms, each associativity triple read: a
    list naming the first failure, or empty."""
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
    for a in elems:
        for b in elems:
            for c in elems:
                if S.mul[S.mul[a, b], c] != S.mul[a, S.mul[b, c]]:
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


def natural_order_violations(S: FiniteInverseSemigroup) -> list[str]:
    """Partial-order and compatibility laws of the natural order."""
    elems = S.elements
    leq = {(u, s): S.natural_leq(u, s) for u in elems for s in elems}
    bad = []
    for s in elems:
        if not leq[s, s]:
            bad.append(f"not reflexive at {s}")
    for u in elems:
        for s in elems:
            if leq[u, s] and leq[s, u] and u != s:
                bad.append(f"not antisymmetric at ({u},{s})")
            if leq[u, s] and not leq[S.star[u], S.star[s]]:
                bad.append(f"u <= s but u* !<= s* at ({u},{s})")
            for t in elems:
                if leq[u, s] and leq[s, t] and not leq[u, t]:
                    bad.append(f"not transitive at ({u},{s},{t})")
    idem = S.idempotents()
    for u in elems:
        for s in elems:
            if leq[u, s]:
                for e in idem:
                    if not leq[S.mul[u, e], S.mul[s, e]]:
                        bad.append(f"u <= s but ue !<= se at ({u},{s},{e})")
    return bad


def direct_sum_modules(mods) -> AlgebraModule:
    """The block-diagonal sum of modules over one algebra."""
    mods = list(mods)
    if not mods:
        raise AlgebraError("direct sum of no modules")
    A = mods[0].algebra
    f = A.field
    if any(m.algebra is not A and m.algebra.table != A.table for m in mods):
        raise AlgebraError("direct summands over different algebras")
    total = sum(m.dim for m in mods)
    mats = []
    for i in range(A.dim):
        M = linalg.zero_matrix(f, total, total)
        off = 0
        for m in mods:
            for r in range(m.dim):
                for c in range(m.dim):
                    M[off + r][off + c] = m.mats[i][r][c]
            off += m.dim
        mats.append(M)
    return AlgebraModule(A, total, mats)


def isotropy_group(G: FiniteGroupoid, x):
    """(elements, mul, inv, identity) of the isotropy group at x, verified."""
    elems = G.isotropy_arrows(x)
    e = G.unit_arrow(x)
    mul = {}
    for a in elems:
        for b in elems:
            c = G.compose.get((a, b))
            if c is None or c not in set(elems):
                raise InputError(f"isotropy at {x} is not closed under composition")
            mul[a, b] = c
    for a in elems:
        if mul[e, a] != a or mul[a, e] != a:
            raise InputError(f"isotropy at {x} has no identity")
        inv = G.inverse[a]
        if inv not in set(elems) or mul[a, inv] != e or mul[inv, a] != e:
            raise InputError(f"isotropy at {x} has no inverses")
    for a in elems:
        for b in elems:
            for c in elems:
                if mul[mul[a, b], c] != mul[a, mul[b, c]]:
                    raise InputError(f"isotropy at {x} is not associative")
    return elems, mul, {a: G.inverse[a] for a in elems}, e


def isotropy_skew_ring(conv: ConvAlgebra, x) -> FDAlgebra:
    """B_x the long way: the skew group ring of the isotropy group at x
    over the stalk at x, (a delta)(b eps) = a alpha_delta(b) (delta eps),
    validated.  Basis labels are (stalk index, isotropy arrow) in
    stalk-major order."""
    G = conv.groupoid
    O = conv.sheaf
    stalk = O.stalk[x]
    f = conv.field
    elems, mul, _, _ = isotropy_group(G, x)
    labels = [(i, d) for i in range(stalk.dim) for d in elems]
    idx = {lab: k for k, lab in enumerate(labels)}
    dim = len(labels)
    table = []
    for (i, d) in labels:
        row = []
        for (j, e) in labels:
            prod = stalk.mul(stalk.basis_vector(i),
                             O.apply(d, stalk.basis_vector(j)))
            v = linalg.zero_vector(f, dim)
            target = mul[d, e]
            for k, c in enumerate(prod):
                if c != 0:
                    v[idx[k, target]] = c
            row.append(v)
        table.append(row)
    unit = linalg.zero_vector(f, dim)
    e0 = G.unit_arrow(x)
    for k, c in enumerate(stalk.unit):
        if c != 0:
            unit[idx[k, e0]] = c
    B = FDAlgebra(f, labels, table, unit)
    bad = exactalg.validate_algebra(B)
    if bad:
        raise CheckFailure("isotropy ring fails algebra axioms: " + bad[0])
    return B


def b_x_module(st: ModuleStalks, x, B: FDAlgebra) -> AlgebraModule:
    """The stalk at x of a disintegrated Gamma-module as a module over the
    isotropy ring B_x, (a delta) . m = a . beta_delta(m), read in the
    echelon basis of the stalk and validated."""
    f = st.field
    sp = st.stalk_space[x]
    index = st.module.algebra.label_index
    mats = []
    for (i, delta) in B.labels:
        P = st.module.mats[index[delta, i]]
        rows = [sp.coords_of(linalg.mat_vec(f, P, list(v))) for v in sp.basis]
        mats.append(linalg.transpose(rows) if rows else [])
    mod = AlgebraModule(B, sp.dim, mats)
    bad = mod.validate()
    if bad:
        raise CheckFailure("stalk is not a B_x-module: " + bad[0])
    return mod


class SectionBimodule:
    """L_x: sections supported on arrows out of x, as a bimodule.

    Left action of Gamma_c, right action of B_x; validated on basis
    triples.  Basis labels are (arrow gamma with src gamma = x, stalk
    index at dst gamma).
    """

    def __init__(self, conv: ConvAlgebra, x, B: FDAlgebra):
        G = conv.groupoid
        O = conv.sheaf
        f = conv.field
        self.conv = conv
        self.x = x
        self.B = B
        self.arrows = G.arrows_from(x)
        self.labels = [(g, i) for g in self.arrows
                       for i in range(O.stalk[G.dst[g]].dim)]
        self.index = {lab: k for k, lab in enumerate(self.labels)}
        self.dim = len(self.labels)
        # left action of Gamma_c basis (zeta, i)
        left = []
        for (zeta, i) in conv.algebra.labels:
            M = linalg.zero_matrix(f, self.dim, self.dim)
            for (g, j) in self.labels:
                if G.src[zeta] != G.dst[g]:
                    continue
                stalk = O.stalk[G.dst[zeta]]
                moved = O.apply(zeta, O.stalk[G.dst[g]].basis_vector(j))
                prod = stalk.mul(stalk.basis_vector(i), moved)
                tgt = G.compose[zeta, g]
                col = self.index[g, j]
                for k, c in enumerate(prod):
                    if c != 0:
                        M[self.index[tgt, k]][col] = c
            left.append(M)
        self.left = AlgebraModule(conv.algebra, self.dim, left)
        # right action of B_x basis (i', delta): v . b
        right = []
        for (i2, delta) in B.labels:
            M = linalg.zero_matrix(f, self.dim, self.dim)
            for (g, j) in self.labels:
                stalk = O.stalk[G.dst[g]]
                moved = O.apply(g, O.stalk[x].basis_vector(i2))
                prod = stalk.mul(stalk.basis_vector(j), moved)
                tgt = G.compose[g, delta]
                col = self.index[g, j]
                for k, c in enumerate(prod):
                    if c != 0:
                        M[self.index[tgt, k]][col] = c
            right.append(M)
        self.right_mats = right

    def right_action_matrix(self, bvec):
        return linalg.combine_matrices(self.conv.field, bvec, self.right_mats,
                                       self.dim)

    def validate(self) -> list[str]:
        f = self.conv.field
        bad = self.left.validate()
        B = self.B
        # right module axioms: rho(b b') = rho(b') after rho(b) in matrix
        # terms means N_{bb'} = N_{b'} @ ... acting on column vectors we
        # need N_b N_{b'} applied right-to-left: (v.b).b' = N_{b'} N_b v.
        for i in range(B.dim):
            for j in range(B.dim):
                lhs = self.right_action_matrix(list(B.table[i][j]))
                rhs = linalg.mat_mul(f, self.right_mats[j], self.right_mats[i])
                if not linalg.mat_eq(lhs, rhs):
                    bad.append(f"right action fails on ({B.labels[i]},{B.labels[j]})")
        if not linalg.mat_eq(self.right_action_matrix(list(B.unit)),
                             linalg.identity_matrix(f, self.dim)):
            bad.append("B unit does not act as identity on the right")
        # bimodule compatibility on basis triples
        for Mf in self.left.mats:
            for Nb in self.right_mats:
                if not linalg.mat_eq(linalg.mat_mul(f, Nb, Mf),
                                     linalg.mat_mul(f, Mf, Nb)):
                    bad.append("left and right actions do not commute")
                    return bad
        return bad


def freeness_isomorphisms(L: SectionBimodule, T: InductionMap):
    """(Phi, Psi): mutually inverse right-B_x-maps between L_x and the
    free module with basis 1_{eta_y}, y in the orbit.

    Free-module basis labels are (y, B-basis label); returns the pair of
    matrices and raises if they fail to be inverse or right-linear.
    """
    conv, B, x = L.conv, L.B, L.x
    G, O, f = conv.groupoid, conv.sheaf, conv.field
    free_labels = [(y, lab) for y in T.orbit for lab in B.labels]
    fidx = {lab: k for k, lab in enumerate(free_labels)}
    n = len(free_labels)
    if n != L.dim:
        raise CheckFailure("free module and L_x have different dimensions")
    Phi = linalg.zero_matrix(f, n, L.dim)
    for (g, i) in L.labels:
        y = G.dst[g]
        eta_inv = G.inverse[T.eta[y]]
        a = O.apply(eta_inv, O.stalk[y].basis_vector(i))
        delta = G.compose[eta_inv, g]
        col = L.index[g, i]
        for k, c in enumerate(a):
            if c != 0:
                Phi[fidx[y, (k, delta)]][col] = c
    Psi = linalg.zero_matrix(f, L.dim, n)
    for (y, (j, delta)) in free_labels:
        b = O.apply(T.eta[y], O.stalk[x].basis_vector(j))
        tgt = G.compose[T.eta[y], delta]
        col = fidx[y, (j, delta)]
        for k, c in enumerate(b):
            if c != 0:
                Psi[L.index[tgt, k]][col] = c
    eye_n = linalg.identity_matrix(f, n)
    if not linalg.mat_eq(linalg.mat_mul(f, Phi, Psi), eye_n):
        raise CheckFailure("Phi o Psi is not the identity")
    if not linalg.mat_eq(linalg.mat_mul(f, Psi, Phi),
                         linalg.identity_matrix(f, L.dim)):
        raise CheckFailure("Psi o Phi is not the identity")
    # right B-linearity of Phi: Phi(v.b) = Phi(v).b, free side acting blockwise
    for bi in range(B.dim):
        Nb = L.right_mats[bi]
        free_b = linalg.zero_matrix(f, n, n)
        for (y, lab) in free_labels:
            src_col = fidx[y, lab]
            prod = B.mul(B.basis_vector(B.label_index[lab]),
                         B.basis_vector(bi))
            for k, c in enumerate(prod):
                if c != 0:
                    free_b[fidx[y, B.labels[k]]][src_col] = c
        lhs = linalg.mat_mul(f, Phi, Nb)
        rhs = linalg.mat_mul(f, free_b, Phi)
        if not linalg.mat_eq(lhs, rhs):
            raise CheckFailure("Phi is not right B-linear")
    return Phi, Psi

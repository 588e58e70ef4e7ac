"""Induction from isotropy and disintegration of modules.

For a unit x, B_x is the corner 1_x Gamma_c 1_x of the sections on the
isotropy arrows at x, read off Gamma_c's certified table: the skew group
ring of the isotropy group at x over the stalk at x, (a delta)(b eps) =
a alpha_delta(b) (delta eps), with basis labels (stalk index, isotropy
arrow) in Gamma_c's arrow-major order.  The space L_x of sections
supported on arrows out of x is a (Gamma_c, B_x)-bimodule, free as a
right B_x-module with one generator 1_{eta_y} per orbit unit y along any
transversal eta.  Inducing a left B_x-module M up gives L_x (x) M,
written out directly (the tests build L_x and its freeness maps as the
reference):

    Ind_x(M) = sum over y in Orb(x) of a copy of M,
    f . (y, m) has component at z:
        sum over arrows zeta: y -> z of
            (alpha_{eta_z^{-1}}(f(zeta)) delta_{eta_z^{-1} zeta eta_y}) . m

The inner sums are the blocks of one map Phi_x: Gamma_c -> M_k(B_x),
k = |Orb(x)|, certified a unital ring homomorphism when it is built
(InductionMap), so Ind_x(M) = (id_k (x) rho_M) o Phi_x is a module once
M is.  A section f annihilates Ind_x(M) iff each of those inner sums
lies in the annihilator of M; that criterion is recomputed independently
and compared against the direct annihilator every time.

Disintegration: e_x = chi_{x} are orthogonal idempotents summing to 1,
every module M splits as the sum of its stalks M_x = e_x M, arrows act
by beta_gamma = (chi_{gamma} . -), B_x acts on M_x through the action
matrices of M, and the original action is recovered from the stalks.
"""

from __future__ import annotations

from . import convalg, exactalg, linalg
from .convalg import ConvAlgebra
from .errors import CapExceeded, CheckFailure, InputError
from .exactalg import AlgebraModule, FDAlgebra, Subspace
from .groupoid import orbit_of
from .reports import Report


def isotropy_ring(conv: ConvAlgebra, x) -> FDAlgebra:
    """B_x: the corner 1_x Gamma 1_x of the sections supported on the
    isotropy arrows at x, read off Gamma's certified table.

    Basis labels are (stalk index, isotropy arrow), in Gamma's
    arrow-major order.
    """
    return convalg.isotropy_corner(conv, [x])[1]


def _displaced(phi: "InductionMap", zeta, i):
    """The element alpha_{eta_z^-1}(e_i) delta of B_x, with
    delta = eta_z^-1 zeta eta_y, that the point mass e_i on zeta: y -> z
    moves back to x along the transversal."""
    conv, B = phi.conv, phi.B
    G, O, f = conv.groupoid, conv.sheaf, conv.field
    y, z = G.src[zeta], G.dst[zeta]
    eta_z_inv = G.inverse[phi.eta[z]]
    b = O.apply(eta_z_inv, O.stalk[z].basis_vector(i))
    delta = G.compose[G.compose[eta_z_inv, zeta], phi.eta[y]]
    bvec = linalg.zero_vector(f, B.dim)
    for k, c in enumerate(b):
        if c != 0:
            bvec[B.label_index[k, delta]] = c
    return bvec


class InductionMap:
    """Phi_x: Gamma_c -> M_k(B_x) along a transversal, k = |Orb(x)|.

    The transversal eta picks one arrow eta_y: x -> y per orbit unit y,
    with eta_x the identity; slot[y] is y's place in the orbit.  The
    point mass e_i on zeta: y -> z goes to E_{z,y} (x) d(zeta, i), d the
    displaced element (_displaced); sections on arrows outside the orbit
    go to 0.  entries[j] is (slot of z, slot of y, d) for the j-th basis
    section, or None.  The constructor certifies Phi_x a unital ring
    homomorphism that restricts to the identity of B_x on the corner
    1_x Gamma_c 1_x, so Ind_x(M) = (id_k (x) rho_M) o Phi_x is a
    Gamma_c-module for every B_x-module M.
    """

    def __init__(self, conv: ConvAlgebra, x, B: FDAlgebra, eta: dict):
        G, A = conv.groupoid, conv.algebra
        self.conv, self.x, self.B = conv, x, B
        self.orbit = orbit_of(G, x)
        self.slot = {y: s for s, y in enumerate(self.orbit)}
        self.eta = dict(eta)
        if set(self.eta) != set(self.orbit):
            raise InputError("transversal must pick one arrow per orbit unit")
        if self.eta[x] != G.unit_arrow(x):
            raise InputError("transversal must send the base unit to its identity")
        for y, a in self.eta.items():
            if G.src[a] != x or G.dst[a] != y:
                raise InputError(f"transversal arrow for {y} is not x -> y")
        self.loops = set(G.isotropy_arrows(x))
        self.entries = [
            (self.slot[G.dst[zeta]], self.slot[G.src[zeta]],
             _displaced(self, zeta, i))
            if G.src[zeta] in self.slot else None
            for (zeta, i) in A.labels]
        bad = self.violations()
        if bad:
            raise CheckFailure("induction map is not a unital ring "
                               "homomorphism: " + bad[0])

    @classmethod
    def canonical(cls, conv: ConvAlgebra, x, B: FDAlgebra) -> "InductionMap":
        """Along the least arrow x -> y in arrow input order, identity at x."""
        G = conv.groupoid
        eta = {x: G.unit_arrow(x)}
        for y in orbit_of(G, x):
            if y == x:
                continue
            between = G.arrows_between(x, y)
            if not between:
                raise CheckFailure("orbit unit unreachable by an arrow")
            eta[y] = min(between, key=G.arrow_index.get)
        return cls(conv, x, B, eta)

    def violations(self) -> list[str]:
        """Phi(b_i) Phi(b_j) = sum_k t_ijk Phi(b_k) on the basis pairs
        where either side can be nonzero: those with b_i b_j != 0 in
        Gamma's table and those with E_{z_i,y_i} E_{z_j,y_j} != 0.  Then
        Phi(1) = 1 and Phi(e_i on delta) = e_(i, delta) for every loop
        delta at x."""
        A, B, f = self.conv.algebra, self.B, self.B.field
        table, btable = A.nonzero_table(), B.nonzero_table()
        # (slot of z, slot of y, nonzero coordinates of d), or None
        sparse = [None if e is None else
                  (e[0], e[1], [(k, c) for k, c in enumerate(e[2]) if c != 0])
                  for e in self.entries]
        into: dict = {}
        for j, e in enumerate(sparse):
            if e is not None:
                into.setdefault(e[0], []).append(j)

        def subtract(diff, e, scale):
            if e is not None:
                for k, c in e[2]:
                    key = (e[0], e[1], k)
                    diff[key] = f.sub(diff.get(key, f.zero), f.mul(scale, c))

        bad = []
        for i, ei in enumerate(sparse):
            pairs = {j for j, ts in enumerate(table[i]) if ts}
            if ei is not None:
                pairs.update(into.get(ei[1], ()))
            for j in sorted(pairs):
                ej = sparse[j]
                diff: dict = {}
                if ei is not None and ej is not None and ei[1] == ej[0]:
                    for a, s in ei[2]:
                        for b, t in ej[2]:
                            st = f.mul(s, t)
                            for k, c in btable[a][b]:
                                key = (ei[0], ej[1], k)
                                diff[key] = f.add(diff.get(key, f.zero),
                                                  f.mul(st, c))
                for k, t in table[i][j]:
                    subtract(diff, sparse[k], t)
                if any(c != 0 for c in diff.values()):
                    bad.append(f"Phi({A.labels[i]}) Phi({A.labels[j]}) "
                               f"!= Phi({A.labels[i]} * {A.labels[j]})")
        one = {(s, s, k): c for s in self.slot.values()
               for k, c in enumerate(B.unit) if c != 0}
        for j, u in enumerate(A.unit):
            if u != 0:
                subtract(one, sparse[j], u)
        if any(c != 0 for c in one.values()):
            bad.append("Phi(1) is not the identity of M_k(B_x)")
        s = self.slot[self.x]
        for j, (delta, i) in enumerate(A.labels):
            if delta in self.loops and sparse[j] != (
                    s, s, [(B.label_index[i, delta], f.one)]):
                bad.append(f"Phi({A.labels[j]}) is not its corner element")
        return bad


def induce(phi: InductionMap, M: AlgebraModule) -> AlgebraModule:
    """Ind_x(M) for a left B_x-module M, as a Gamma_c-module.

    Carrier: one copy of M per orbit unit (basis labels (y, k) in orbit
    order); the action matrix of the j-th basis section is
    (id_k (x) rho_M)(Phi_x(b_j)), the displacement formula in the module
    docstring.  It is a Gamma_c-module because Phi_x is certified a
    unital ring homomorphism (InductionMap) and M is validated over B_x.
    """
    if M.algebra is not phi.B:
        raise CheckFailure("module is not over the induction map's B_x")
    bad = M.validate()
    if bad:
        raise CheckFailure("module is not a B_x-module: " + bad[0])
    f, m = phi.conv.field, M.dim
    dim = len(phi.orbit) * m
    mats = []
    for entry in phi.entries:
        Mat = linalg.zero_matrix(f, dim, dim)
        if entry is not None:
            zs, ys, d = entry
            act = M.action_matrix(d)
            ro, co = zs * m, ys * m
            for r in range(m):
                for c in range(m):
                    if act[r][c] != 0:
                        Mat[ro + r][co + c] = act[r][c]
        mats.append(Mat)
    return AlgebraModule(phi.conv.algebra, dim, mats)


def annihilator_induced(phi: InductionMap, M: AlgebraModule,
                        ind: AlgebraModule) -> Subspace:
    """Annihilator of ind = Ind_x(M), computed two independent ways.

    Directly from the induced action matrices, and through the orbit-sum
    criterion (each inner sum lands in Ann_{B_x}(M)): a section f
    annihilates Ind_x(M) iff every block of Phi_x(f) maps to 0 in
    B_x / Ann(M), so the criterion's rows are read off Phi_x.  Any
    mismatch is a hard failure.
    """
    f, n = phi.conv.field, phi.conv.dim
    direct = exactalg.annihilator(ind)

    projB, _ = exactalg.quotient_coords(f, exactalg.annihilator(M))
    # one row per block (z, y) and quotient coordinate: the linear map
    # Gamma_c -> B_x / Ann(M) of the orbit sum and the quotient projection
    blocks: dict = {}
    for j, entry in enumerate(phi.entries):
        if entry is None:
            continue
        col = linalg.mat_vec(f, projB, entry[2])
        rows = blocks.get(entry[:2])
        if rows is None:
            rows = blocks[entry[:2]] = [linalg.zero_vector(f, n) for _ in col]
        for row, c in zip(rows, col):
            row[j] = c
    rows = [row for block in blocks.values() for row in block]
    if rows:
        criterion = Subspace.from_vectors(f, n, linalg.kernel_basis(f, rows, n))
    else:
        criterion = Subspace.full(f, n)
    if criterion != direct:
        raise CheckFailure("orbit-sum annihilator criterion disagrees with "
                           "the direct annihilator")
    return direct


def induced_simplicity_witness(phi: InductionMap, M: AlgebraModule,
                               ind: AlgebraModule):
    """None when ind = Ind_x(M) is simple; else a proper nonzero submodule.

    Decided on the base stalk.  Slot y of Ind_x(M) is e_y Ind_x(M), and
    the corner B_x acts on slot x as on M (both part of Phi_x's
    certificate).  If M is simple, chi_{eta_y} carries slot x onto slot y
    for every y (slot x generates) and chi_{eta_y^-1} maps slot y
    injectively into slot x, then Ind_x(M) is simple: a nonzero submodule
    W has some e_y W != 0, so chi_{eta_y^-1} e_y W meets slot x, and that
    meet is a nonzero B_x-submodule of M, so all of slot x, which
    generates.  If M has a proper submodule M', Gamma . M' is a proper
    submodule, certified proper.  Either premise failing on ind is a
    CheckFailure.  The scan of module_simplicity_witness runs on M, not
    on Ind_x(M).
    """
    conv, slot, m = phi.conv, phi.slot, M.dim
    f, G = conv.field, conv.groupoid
    base = range(slot[phi.x] * m, (slot[phi.x] + 1) * m)
    W = exactalg.module_simplicity_witness(M)
    if W is not None:
        lifted = []
        for v in W.basis:
            w = linalg.zero_vector(f, ind.dim)
            for r, c in zip(base, v):
                w[r] = c
            lifted.append(w)
        U = exactalg.submodule_generated(ind, lifted)
        if U.is_zero() or U.is_full():
            raise CheckFailure("a proper submodule of the base stalk "
                               "generates no proper induced submodule")
        return U
    carried = []
    for y, eta in phi.eta.items():
        out = ind.action_matrix(conv.chi([eta]))
        carried.extend([row[c] for row in out] for c in base)
        back = ind.action_matrix(conv.chi([G.inverse[eta]]))
        cols = range(slot[y] * m, (slot[y] + 1) * m)
        block = [[back[r][c] for c in cols] for r in base]
        if (linalg.rank(f, block) != m or any(
                back[r][c] != 0 for r in range(ind.dim) if r not in base
                for c in cols)):
            raise CheckFailure(f"chi of eta_{y}^-1 does not map slot {y} "
                               f"injectively into the base slot")
    if not Subspace.from_vectors(f, ind.dim, carried).is_full():
        raise CheckFailure("the base slot does not generate the induced module")
    return None


# ---------------------------------------------------------------------------
# disintegration into stalks


class ModuleStalks:
    """Stalks M_x = e_x M of a Gamma_c-module, with the arrow maps.

    Realizes M_x as the image of the idempotent e_x = chi_{x} with its
    echelon basis; beta_gamma is left multiplication by chi_{gamma}, and
    chi_action[gamma] its matrix on M.
    """

    def __init__(self, conv: ConvAlgebra, M: AlgebraModule):
        G, f = conv.groupoid, conv.field
        self.groupoid, self.field = G, f
        self.module = M
        self.chi_action = {a: M.action_matrix(conv.chi([a])) for a in G.arrows}
        self.stalk_space: dict = {}
        for u in G.units:
            P = self.chi_action[G.unit_arrow(u)]
            img = Subspace.from_vectors(f, M.dim, linalg.transpose(P))
            self.stalk_space[u] = img
        if sum(S.dim for S in self.stalk_space.values()) != M.dim:
            raise CheckFailure("stalk dimensions do not sum to the module dimension")
        self.beta: dict = {}
        for a in G.arrows:
            src_sp = self.stalk_space[G.src[a]]
            dst_sp = self.stalk_space[G.dst[a]]
            P = self.chi_action[a]
            rows = []
            for v in src_sp.basis:
                w = linalg.mat_vec(f, P, list(v))
                rows.append(dst_sp.coords_of(w))
            self.beta[a] = linalg.transpose(rows) if rows else [[] for _ in range(dst_sp.dim)]

    def validate(self) -> list[str]:
        """beta is functorial and invertible; identities act trivially."""
        G, f = self.groupoid, self.field
        bad = []
        for u in G.units:
            e = G.unit_arrow(u)
            d = self.stalk_space[u].dim
            if not linalg.mat_eq(self.beta[e], linalg.identity_matrix(f, d)):
                bad.append(f"beta at the identity of {u} is not the identity")
        for (b, r), br in G.compose.items():
            lhs = linalg.mat_mul(f, self.beta[b], self.beta[r])
            if not linalg.mat_eq(lhs, self.beta[br]):
                bad.append(f"beta[{b}] o beta[{r}] != beta[{br}]")
        for a in G.arrows:
            if self.stalk_space[G.src[a]].dim != self.stalk_space[G.dst[a]].dim:
                bad.append(f"beta[{a}] between stalks of different dimension")
            elif linalg.inverse_matrix(f, self.beta[a]) is None and self.beta[a]:
                bad.append(f"beta[{a}] is not invertible")
        return bad

    def reconstruction_check(self) -> bool:
        """Rebuild the action from the stalks and compare matrices.

        The canonical map m |-> (e_x m)_x conjugates the original action
        onto (f . m)(z) = sum over zeta into z of f(zeta) beta_zeta(m(src)).
        """
        G, M, f = self.groupoid, self.module, self.field
        chi_action = self.chi_action
        units = list(G.units)
        offs, total = {}, 0
        for u in units:
            offs[u] = total
            total += self.stalk_space[u].dim
        if total != M.dim:
            return False
        T = []
        for u in units:
            # the rows of T at u: stalk coordinates of each column P e_c
            P = chi_action[G.unit_arrow(u)]
            sp = self.stalk_space[u]
            T.extend(linalg.transpose([sp.coords_of(col)
                                       for col in linalg.transpose(P)]))
        for (zeta, i), mat in zip(M.algebra.labels, M.mats):
            y, z = G.src[zeta], G.dst[zeta]
            sp_y, sp_z = self.stalk_space[y], self.stalk_space[z]
            recon = linalg.zero_matrix(f, total, total)
            # stalk multiplication by the coefficient e_i after beta_zeta:
            # the action of the basis element (unit arrow at z, i)
            mult = M.mats[M.algebra.label_index[G.unit_arrow(z), i]]
            for c in range(sp_y.dim):
                v = list(sp_y.basis[c])
                w = linalg.mat_vec(f, chi_action[zeta], v)
                w = linalg.mat_vec(f, mult, w)
                coords = sp_z.coords_of(w)
                for r in range(sp_z.dim):
                    if coords[r] != 0:
                        recon[offs[z] + r][offs[y] + c] = coords[r]
            lhs = linalg.mat_mul(f, T, mat)
            rhs = linalg.mat_mul(f, recon, T)
            if not linalg.mat_eq(lhs, rhs):
                return False
        return True


def module_stalks(conv: ConvAlgebra, M: AlgebraModule) -> ModuleStalks:
    st = ModuleStalks(conv, M)
    bad = st.validate()
    if bad:
        raise CheckFailure("module stalks invalid: " + bad[0])
    return st


# ---------------------------------------------------------------------------
# the induced-annihilator structure theorem


def regular_stalk(conv: ConvAlgebra, x, B: FDAlgebra):
    """(block, R_x): the stalk e_x Gamma of the regular module, spanned by
    the point masses on the arrows into x (the coordinates in block), and
    that stalk as a B_x-module, on which the basis element (i, delta) of
    the corner acts as the point mass on delta does on Gamma.  Left
    multiplication by chi_{x} is certified the 0/1 projection onto block,
    so e_x v is v restricted to block."""
    G, A = conv.groupoid, conv.algebra
    block = [k for k, (zeta, _) in enumerate(A.labels) if G.dst[zeta] == x]
    zero = linalg.zero_vector(conv.field, A.dim)
    cols = A.basis_products(conv.chi([G.unit_arrow(x)]), "right")
    if any(col != (A.basis_vector(k) if k in block else zero)
           for k, col in enumerate(cols)):
        raise CheckFailure(f"chi of {x} is not the projection onto the "
                           f"point masses on arrows into {x}")
    mats = []
    for (i, delta) in B.labels:
        row = A.table[A.label_index[delta, i]]
        mats.append([[row[c][r] for c in block] for r in block])
    return block, AlgebraModule(B, len(block), mats)


def verify_effros_hahn(conv: ConvAlgebra, seed: int = 0) -> Report:
    """Induced-ideal structure on a finite instance.

    (1) every two-sided ideal I equals the intersection over units x of
        Ann(Ind_x((Gamma_c/I)_x));
    (2) inducing any simple B_x-module yields a simple Gamma_c-module;
    (3) every maximal two-sided ideal is the annihilator of a module
        induced from a simple isotropy module.
    The ideals come from convalg.two_sided_ideals, and Phi_x along the
    canonical transversal is built and certified once per unit.  In (1),
    (Gamma/I)_x is the stalk e_x Gamma of the regular module, a certified
    coordinate block of Gamma (regular_stalk), modulo e_x I, the same
    block of I, whose submodule test quotient_module makes.  Ideals with the same
    e_x I share (Gamma/I)_x, so each distinct quotient at each unit is
    induced once per call; a zero quotient (e_x I = e_x Gamma) induces
    the zero module, whose annihilator Gamma leaves the intersection as
    it is, and is skipped.  The orbit-sum annihilator
    criterion is consistency-checked inside every annihilator_induced
    call.  Each distinct (x, action matrices) is induced and annihilated
    once per call, so a simple module of (2) that equals a stalk
    quotient of (1) reuses its induced module and annihilator; its
    simplicity is decided on the base stalk (induced_simplicity_witness).
    A cap in (2) makes the report a skip.
    seed is accepted for compatibility and changes no answer.
    """
    G = conv.groupoid
    f = conv.field
    A = conv.algebra
    rep = Report(check="effros-hahn", hypotheses={})
    try:
        ideals = convalg.two_sided_ideals(conv)
    except CapExceeded as exc:
        rep.passed = None
        rep.caps_hit.append(str(exc))
        return rep

    maps = {x: InductionMap.canonical(conv, x, isotropy_ring(conv, x))
            for x in G.units}
    induced: dict = {}

    def induced_at(x, M):
        """(Ind_x(M), its annihilator), once per unit and exact action
        matrices of M: a simple quotient (Gamma/I)_x of (1) comes back
        in (2) as a simple B_x-module."""
        key = (x, tuple(tuple(map(tuple, X)) for X in M.mats))
        if key not in induced:
            ind = induce(maps[x], M)
            induced[key] = ind, annihilator_induced(maps[x], M, ind)
        return induced[key]

    # (Gamma/I)_x = e_x Gamma / e_x I: a coordinate block of Gamma modulo
    # the same block of each ideal, annihilated once per (x, e_x I)
    stalk_at = {x: regular_stalk(conv, x, maps[x].B) for x in G.units}
    quotient_ann: dict = {}

    mismatched = 0
    for I in ideals:
        meet = Subspace.full(f, A.dim)
        for x in G.units:
            block, R = stalk_at[x]
            N = Subspace.from_vectors(f, R.dim, [[v[k] for k in block]
                                                 for v in I.basis])
            if N.is_full():
                continue
            key = (x, N.basis)
            if key not in quotient_ann:
                Mx, _ = exactalg.quotient_module(R, N)
                quotient_ann[key] = induced_at(x, Mx)[1]
            meet = meet.intersect(quotient_ann[key])
        if meet != I:
            mismatched += 1
            rep.witnesses.setdefault("ideal_dims_mismatched", []).append(I.dim)
    rep.lhs = f"{len(ideals)} ideals vs induced-annihilator intersections"

    simple_fail = 0
    inventory: list[Subspace] = []
    inventory_keys = set()
    for x in G.units:
        try:
            simples = exactalg.meataxe_simple_quotients(
                exactalg.regular_module(maps[x].B))
        except CapExceeded as exc:
            rep.caps_hit.append(str(exc))
            continue
        for S in simples:
            try:
                ind, ann = induced_at(x, S)
                simple = induced_simplicity_witness(maps[x], S, ind) is None
            except CapExceeded as exc:
                rep.caps_hit.append(str(exc))
                continue
            if not simple:
                simple_fail += 1
                rep.witnesses.setdefault("non_simple_induced", []).append(
                    [str(x), S.dim])
            if ann.basis not in inventory_keys:
                inventory_keys.add(ann.basis)
                inventory.append(ann)

    proper = [I for I in ideals if not I.is_full()]
    maximal = [I for I in proper
               if not any(I != J and I.leq(J) for J in proper)]
    missing = [I for I in maximal if I.basis not in inventory_keys]
    rep.rhs = (f"{len(maximal)} maximal ideals, "
               f"{len(inventory)} primitive annihilators in inventory")
    if missing:
        rep.witnesses["maximal_ideal_dims_missing"] = [I.dim for I in missing]
    rep.notes.append("finite reduction: every primitive ideal of an Artinian "
                     "algebra is maximal, so the inventory is checked against "
                     "the maximal ideals")
    # a capped module leaves the inventory incomplete: decide nothing
    rep.passed = None if rep.caps_hit else (
        mismatched == 0 and simple_fail == 0 and not missing)
    return rep


def check_disintegration(conv: ConvAlgebra,
                         M: AlgebraModule | None = None) -> Report:
    """dim M = sum of stalk dims; beta functorial and invertible; the
    action rebuilt from the stalks matches the original.  Without M, the
    regular module is disintegrated."""
    if M is None:
        M = exactalg.regular_module(conv.algebra)
    try:
        st = module_stalks(conv, M)
    except CheckFailure as exc:
        return Report(check="disintegration", hypotheses={}, passed=False,
                      witnesses={"error": str(exc)})
    dims = {str(u): st.stalk_space[u].dim for u in conv.groupoid.units}
    ok = st.reconstruction_check()
    return Report(check="disintegration", hypotheses={},
                  lhs={"module dim": M.dim},
                  rhs={"stalk dims": dims},
                  passed=ok and sum(dims.values()) == M.dim)

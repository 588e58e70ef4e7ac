"""Finite-dimensional associative algebras over exact fields.

Structure-constant algebras, canonical subspaces, modules given by
action matrices, and the decision procedures built on them: ideal
generation and enumeration, simplicity, Jacobson radical via
composition-factor search, von Neumann regularity, annihilators,
centralizers, and explicit ring isomorphism checking.

Conventions.  Vectors are coordinate rows in the algebra's basis;
subspaces are stored in reduced row echelon form, so two subspaces are
equal iff their stored bases are equal bit for bit.  Action matrices
act on column vectors: (a.m) = rho(a) @ m and rho(a b) = rho(a) rho(b).
"""

from __future__ import annotations

import itertools

from . import linalg
from .errors import AlgebraError, CapExceeded, CheckFailure
from .fields import Field
from .linalg import IncrementalSpan

IDEAL_POINT_BUDGET = 10_000
SIMPLICITY_POINT_BUDGET = 10**6
RADICAL_ORDER_CAP = 2**12


class Subspace:
    """A subspace of F^n with a canonical (RREF) basis."""

    __slots__ = ("field", "parent_dim", "basis", "pivots")

    def __init__(self, field: Field, parent_dim: int, basis, pivots):
        self.field = field
        self.parent_dim = parent_dim
        self.basis = tuple(tuple(r) for r in basis)
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, field, parent_dim, vectors):
        span = IncrementalSpan(field, parent_dim)
        span.add_all(vectors)
        return cls(field, parent_dim, span.rows, span.pivots)

    @classmethod
    def zero(cls, field, parent_dim):
        return cls(field, parent_dim, [], [])

    @classmethod
    def full(cls, field, parent_dim):
        return cls.from_vectors(field, parent_dim, linalg.identity_matrix(field, parent_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return len(self.basis) == self.parent_dim

    def _span(self) -> IncrementalSpan:
        """A span for reduce and contains only: it reads the stored tuples."""
        span = IncrementalSpan(self.field, self.parent_dim)
        span.rows = self.basis
        span.pivots = self.pivots
        return span

    def contains(self, v) -> bool:
        return self._span().contains(v)

    def contains_all(self, vectors) -> bool:
        span = self._span()
        return all(span.contains(v) for v in vectors)

    def coords_of(self, v):
        """Coefficients of v in the stored basis; raises if v is outside."""
        coords = [v[p] for p in self.pivots]
        f = self.field
        w = list(v)
        for c, row in zip(coords, self.basis):
            if c != 0:
                for j, a in enumerate(row):
                    if a != 0:
                        w[j] = f.sub(w[j], f.mul(c, a))
        if not linalg.vec_is_zero(w):
            raise AlgebraError("vector is not in the subspace")
        return coords

    def join(self, other: "Subspace") -> "Subspace":
        self._check_mate(other)
        return Subspace.from_vectors(self.field, self.parent_dim,
                                     list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        # Zassenhaus: rref of [[U|U],[W|0]]; rows with zero left half carry
        # the intersection in their right half.
        self._check_mate(other)
        n = self.parent_dim
        f = self.field
        rows = [list(r) + list(r) for r in self.basis]
        rows += [list(r) + linalg.zero_vector(f, n) for r in other.basis]
        red, _ = linalg.rref(f, rows, 2 * n) if rows else ([], [])
        vecs = [r[n:] for r in red if linalg.vec_is_zero(r[:n])]
        return Subspace.from_vectors(f, n, vecs)

    def leq(self, other: "Subspace") -> bool:
        self._check_mate(other)
        return other.contains_all(self.basis)

    def _check_mate(self, other):
        if self.field != other.field or self.parent_dim != other.parent_dim:
            raise AlgebraError("subspaces live in different spaces")

    def sort_key(self):
        return (self.dim, self.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.parent_dim == other.parent_dim and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.parent_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.parent_dim})"


class FDAlgebra:
    """An algebra given by structure constants on a distinguished basis.

    table[i][j] is the coordinate vector of b_i * b_j.  unit is the
    coordinate vector of a two-sided identity, or None.  The table must
    not change after the first product: products read views of it that
    are built once.
    """

    def __init__(self, field: Field, labels, table, unit=None):
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        if len(table) != self.dim or any(len(row) != self.dim for row in table):
            raise AlgebraError("structure-constant table has the wrong shape")
        self.table = [[tuple(v) for v in row] for row in table]
        for row in self.table:
            for v in row:
                if len(v) != self.dim:
                    raise AlgebraError("structure-constant entry has the wrong length")
        self.unit = tuple(unit) if unit is not None else None
        if self.unit is not None and len(self.unit) != self.dim:
            raise AlgebraError("unit vector has the wrong length")
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.label_index) != self.dim:
            raise AlgebraError("duplicate basis labels")
        self._left_mats: list | None = None
        self._right_mats: list | None = None
        self._nonzero: list | None = None

    def basis_vector(self, i: int):
        v = linalg.zero_vector(self.field, self.dim)
        v[i] = self.field.one
        return v

    def nonzero_table(self):
        """nonzero_table()[i][j] lists the (k, t) with t = table[i][j][k] != 0."""
        if self._nonzero is None:
            self._nonzero = [[[(k, t) for k, t in enumerate(v) if t != 0]
                              for v in row] for row in self.table]
        return self._nonzero

    def mul(self, u, v):
        f = self.field
        out = linalg.zero_vector(f, self.dim)
        v_nz = [(j, b) for j, b in enumerate(v) if b != 0]
        nonzero = self.nonzero_table()
        for i, a in enumerate(u):
            if a == 0:
                continue
            row = nonzero[i]
            for j, b in v_nz:
                c = f.mul(a, b)
                for k, t in row[j]:
                    out[k] = f.add(out[k], f.mul(c, t))
        return out

    def basis_products(self, v, side: str):
        """[b_i v for each i] when side is "left", [v b_i for each i] when
        "right": one pass over the nonzero coordinates of v."""
        f = self.field
        n = self.dim
        out = [linalg.zero_vector(f, n) for _ in range(n)]
        nonzero = self.nonzero_table()
        for j, a in enumerate(v):
            if a == 0:
                continue
            prods = [row[j] for row in nonzero] if side == "left" else nonzero[j]
            for w, prod in zip(out, prods):
                for k, t in prod:
                    w[k] = f.add(w[k], f.mul(a, t))
        return out

    def left_basis_mats(self):
        """Matrices of left multiplication by each basis element."""
        if self._left_mats is None:
            self._left_mats = []
            for i in range(self.dim):
                # column j of L_i is b_i * b_j
                cols = [self.table[i][j] for j in range(self.dim)]
                self._left_mats.append([list(r) for r in zip(*cols)])
        return self._left_mats

    def right_basis_mats(self):
        """Matrices of right multiplication by each basis element."""
        if self._right_mats is None:
            self._right_mats = []
            for j in range(self.dim):
                cols = [self.table[i][j] for i in range(self.dim)]
                self._right_mats.append([list(r) for r in zip(*cols)])
        return self._right_mats

    def left_mult_matrix(self, v):
        return linalg.combine_matrices(self.field, v, self.left_basis_mats(), self.dim)

    def right_mult_matrix(self, v):
        return linalg.combine_matrices(self.field, v, self.right_basis_mats(), self.dim)

    def is_commutative(self) -> bool:
        return all(self.table[i][j] == self.table[j][i]
                   for i in range(self.dim) for j in range(i + 1, self.dim))

    def order(self) -> int:
        return self.field.order ** self.dim

    def elements(self):
        """All coordinate vectors (finite base field only)."""
        scalars = list(self.field.elements())
        return itertools.product(scalars, repeat=self.dim)

    def __repr__(self):
        return f"FDAlgebra(dim={self.dim} over {self.field!r})"


class AlgebraModule:
    """A left module over an FDAlgebra, one action matrix per basis element.

    mats must not change after the first action: actions read views of
    them that are built once.
    """

    def __init__(self, algebra: FDAlgebra, dim: int, mats):
        self.algebra = algebra
        self.dim = dim
        if len(mats) != algebra.dim:
            raise AlgebraError("need one action matrix per algebra basis element")
        self.mats = [[list(r) for r in M] for M in mats]
        for M in self.mats:
            if len(M) != dim or any(len(r) != dim for r in M):
                raise AlgebraError("action matrix has the wrong shape")
        self._nonzero: list | None = None

    @property
    def field(self) -> Field:
        return self.algebra.field

    def nonzero_rows(self):
        """nonzero_rows()[i][r] lists the (c, a) with a = mats[i][r][c] != 0."""
        if self._nonzero is None:
            self._nonzero = [[[(c, a) for c, a in enumerate(row) if a != 0]
                              for row in M] for M in self.mats]
        return self._nonzero

    def act(self, i: int, v) -> list:
        """rho(b_i) v."""
        f = self.field
        out = []
        for row in self.nonzero_rows()[i]:
            acc = f.zero
            for c, a in row:
                b = v[c]
                if b != 0:
                    acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return out

    def action_matrix(self, v):
        f = self.field
        out = linalg.zero_matrix(f, self.dim, self.dim)
        for a, rows in zip(v, self.nonzero_rows()):
            if a == 0:
                continue
            for row, orow in zip(rows, out):
                for c, x in row:
                    orow[c] = f.add(orow[c], f.mul(a, x))
        return out

    def validate(self) -> list[str]:
        """Module axioms: compatibility on basis pairs, unit acts as id.

        Row r of rho(b_i) rho(b_j) - sum_k t_ijk rho(b_k) is summed over
        the nonzero action entries and structure constants only.  It is
        zero unless row r of rho(b_i) or of some rho(b_k) with t_ijk != 0
        is nonzero, so only those rows are walked.
        """
        A = self.algebra
        f = self.field
        rows = self.nonzero_rows()
        table = A.nonzero_table()
        live = [{r for r, row in enumerate(R) if row} for R in rows]
        bad = []
        for i in range(A.dim):
            for j in range(A.dim):
                ts = table[i][j]
                walk = live[i].union(*(live[k] for k, _ in ts)) if ts else live[i]
                for r in walk:
                    diff = {}
                    for c, a in rows[i][r]:
                        for d, b in rows[j][c]:
                            diff[d] = f.add(diff.get(d, f.zero), f.mul(a, b))
                    for k, t in table[i][j]:
                        for d, x in rows[k][r]:
                            diff[d] = f.sub(diff.get(d, f.zero), f.mul(t, x))
                    if any(c != 0 for c in diff.values()):
                        bad.append(f"action({A.labels[i]}*{A.labels[j]}) != "
                                   f"action({A.labels[i]})action({A.labels[j]})")
                        break
        if A.unit is not None:
            if not linalg.mat_eq(self.action_matrix(A.unit),
                                 linalg.identity_matrix(f, self.dim)):
                bad.append("unit does not act as the identity")
        return bad

    def __repr__(self):
        return f"AlgebraModule(dim={self.dim} over dim-{self.algebra.dim} algebra)"


# ---------------------------------------------------------------------------
# validation


def validate_algebra(A: FDAlgebra) -> list[str]:
    """Associativity on all basis triples and the unit law.

    Returns a list of violation descriptions, empty when the data is a
    genuine associative algebra.  (b_i b_j) b_k - b_i (b_j b_k) is summed
    over the nonzero structure constants only, so a triple costs O(s^2)
    field operations when each product b_i b_j has at most s nonzero
    coordinates.  Both sides are 0 when b_i b_j = 0 = b_j b_k, so only
    the triples with a nonzero inner product are walked, in order.
    """
    f = A.field
    nonzero = A.nonzero_table()
    bad = []
    n = A.dim
    every = range(n)
    after = [[k for k in every if nonzero[j][k]] for j in every]
    for i in every:
        for j in every:
            left = nonzero[i][j]
            for k in (every if left else after[j]):
                diff = {}
                for m, t in left:
                    for q, r in nonzero[m][k]:
                        diff[q] = f.add(diff.get(q, f.zero), f.mul(t, r))
                for m, t in nonzero[j][k]:
                    for q, r in nonzero[i][m]:
                        diff[q] = f.sub(diff.get(q, f.zero), f.mul(r, t))
                if any(c != 0 for c in diff.values()):
                    bad.append(
                        f"associativity fails on triple "
                        f"({A.labels[i]},{A.labels[j]},{A.labels[k]})")
    if A.unit is not None:
        for i in range(n):
            e = A.basis_vector(i)
            if A.mul(list(A.unit), e) != e or A.mul(e, list(A.unit)) != e:
                bad.append(f"unit law fails on basis element {A.labels[i]}")
    return bad


def memoized(obj, key, compute, *args):
    """compute(obj, *args), run once per obj and key.  The memo lives on
    obj, so it dies with obj, and is dropped when obj.unit changes."""
    unit = getattr(obj, "unit", None)
    memo = vars(obj).get("_memo")
    if memo is None or memo[0] != unit:
        memo = obj._memo = (unit, {})
    answers = memo[1]
    if key not in answers:
        answers[key] = compute(obj, *args)
    return answers[key]


# ---------------------------------------------------------------------------
# ideals


def projective_points(field: Field, dim: int):
    """One representative per 1-dimensional subspace: first nonzero coord 1."""
    if not field.is_finite:
        raise CapExceeded("projective points need a finite base field")
    scalars = list(field.elements())
    for lead in range(dim):
        for tail in itertools.product(scalars, repeat=dim - lead - 1):
            v = [field.zero] * lead + [field.one] + list(tail)
            yield v


def num_projective_points(field: Field, dim: int) -> int:
    if not field.is_finite:
        raise CapExceeded("projective point count needs a finite base field")
    p = field.order
    return (p**dim - 1) // (p - 1) if dim else 0


def ideal_generated(A: FDAlgebra, gens, sided: str = "two",
                    stop_at_full: bool = False) -> Subspace:
    """Smallest left/right/two-sided ideal containing the generators.

    The left ideal L = g + Ag is spanned by the generators and their
    basis products; the two-sided ideal is L + LA = (g + Ag) + (g + Ag)A,
    so only the echelon rows of L are multiplied on the right, and a
    single pass suffices.  stop_at_full bails out as soon as the span is
    everything.
    """
    if sided not in ("left", "right", "two"):
        raise AlgebraError(f"sided must be left/right/two, got {sided!r}")
    f = A.field
    span = IncrementalSpan(f, A.dim)

    def images():
        first = "right" if sided == "right" else "left"
        for g in gens:
            yield g
            yield from A.basis_products(g, first)
        if sided == "two":
            for row in [list(r) for r in span.rows]:
                yield from A.basis_products(row, "right")

    for w in images():
        span.add(w)
        if stop_at_full and span.is_full():
            break
    return Subspace(f, A.dim, span.rows, span.pivots)


def is_ideal(A: FDAlgebra, S: Subspace, sided: str = "two") -> bool:
    """Is S closed under products with A's basis from the given side(s)?"""
    if sided not in ("left", "right", "two"):
        raise AlgebraError(f"sided must be left/right/two, got {sided!r}")
    span = S._span()
    sides = [side for side in ("left", "right") if sided in (side, "two")]
    return all(span.contains(w) for v in S.basis for side in sides
               for w in A.basis_products(v, side))


def enumerate_two_sided_ideals(A: FDAlgebra) -> list[Subspace]:
    """All two-sided ideals, sorted by (dim, basis).

    Every ideal is the join of the cyclic ideals of its elements.  For a
    unital A, take a complete set e_1..e_k of orthogonal idempotents
    (orthogonal_idempotents, sum 1).  Then every two-sided ideal is
    I = sum_ij e_i I e_j, and e_i I e_j = I meet e_i A e_j because
    e_i x e_j = x for x in e_i A e_j.  So I is the join of the cyclic
    ideals of the projective points of I inside the Peirce spaces
    e_i A e_j, and the join-closure of the cyclic ideals of all points of
    all Peirce spaces is the complete list.  That scan costs one ideal
    generation per Peirce point, sum_ij (p^dim(e_i A e_j) - 1)/(p - 1),
    instead of one per point of A.  A non-unital or zero algebra is one
    piece, the whole space.  The point count is known before the scan,
    and more than IDEAL_POINT_BUDGET of them raises CapExceeded before
    any ideal is generated.  The list is computed once per algebra.

    The budget is set from whole scans (shared 2-CPU machine, CPython
    3.11): GF(2)[Z8] has 255 points (0.07 s), GF(5)[Z5] 781 (0.13 s),
    GF(3)[Z9] 9841 (4.0 s), GF(2)[Z16] 65 535 (98 s) and GF(7)[Z7]
    137 257 (38 s).  Each of them is local, k = 1; no catalog algebra has
    more than 18 points.
    """
    if not A.field.is_finite:
        raise CapExceeded("ideal enumeration needs a finite base field")
    return list(memoized(A, "ideals", _two_sided_ideals))


def _two_sided_ideals(A: FDAlgebra) -> list[Subspace]:
    """The body of enumerate_two_sided_ideals, past its field check."""
    f = A.field
    if A.unit is None or A.dim == 0:
        pieces = [Subspace.full(f, A.dim)]
    else:
        idems = orthogonal_idempotents(A)
        pieces = []
        for e in idems:
            left = [A.mul(e, A.basis_vector(i)) for i in range(A.dim)]
            pieces.extend(Subspace.from_vectors(f, A.dim, [A.mul(x, e2) for x in left])
                          for e2 in idems)
    points = sum(num_projective_points(f, P.dim) for P in pieces)
    if points > IDEAL_POINT_BUDGET:
        raise CapExceeded(f"ideal enumeration capped at {IDEAL_POINT_BUDGET} "
                          f"Peirce points, algebra has {points}")
    cyclics: dict[tuple, Subspace] = {}
    for P in pieces:
        cols = linalg.transpose(P.basis)
        for c in projective_points(f, P.dim):
            I = ideal_generated(A, [linalg.mat_vec(f, cols, c)], "two")
            cyclics.setdefault(I.basis, I)
    return _join_closure(A, cyclics)


def _join_closure(A: FDAlgebra, cyclics: dict) -> list[Subspace]:
    """0 and every join of the given ideals, sorted by (dim, basis)."""
    f = A.field
    found: dict[tuple, Subspace] = {(): Subspace.zero(f, A.dim)}
    for I in cyclics.values():
        found.setdefault(I.basis, I)
    work = list(found.values())
    gens = list(cyclics.values())
    while work:
        I = work.pop()
        for J in gens:
            # I's rows are already reduced: extend them by J's
            span = IncrementalSpan(f, A.dim)
            span.rows = [list(r) for r in I.basis]
            span.pivots = list(I.pivots)
            span.add_all(J.basis)
            if span.dim == I.dim:
                continue  # J lies in I
            K = Subspace(f, A.dim, span.rows, span.pivots)
            if K.basis not in found:
                found[K.basis] = K
                work.append(K)
    return sorted(found.values(), key=Subspace.sort_key)


def enumerate_subspaces(field: Field, dim: int, max_count: int = 500_000):
    """Every subspace of F^dim, via all reduced echelon bases.

    Brute-force oracle used in tests to cross-check the ideal enumeration;
    it walks pivot-column choices and free entries.
    """
    if not field.is_finite:
        raise CapExceeded("subspace enumeration needs a finite base field")
    count = 0
    scalars = list(field.elements())
    yield Subspace.zero(field, dim)
    for k in range(1, dim + 1):
        for pivots in itertools.combinations(range(dim), k):
            free_cells = []
            for r, p in enumerate(pivots):
                for c in range(p + 1, dim):
                    if c not in pivots:
                        free_cells.append((r, c))
            for vals in itertools.product(scalars, repeat=len(free_cells)):
                rows = [[field.zero] * dim for _ in range(k)]
                for r, p in enumerate(pivots):
                    rows[r][p] = field.one
                for (r, c), a in zip(free_cells, vals):
                    rows[r][c] = a
                count += 1
                if count > max_count:
                    raise CapExceeded(f"more than {max_count} subspaces")
                yield Subspace(field, dim, rows, pivots)


# ---------------------------------------------------------------------------
# idempotents


def _power(A: FDAlgebra, x, k: int):
    """x^k for k >= 1, by repeated squaring."""
    result = None
    while True:
        if k & 1:
            result = x if result is None else A.mul(result, x)
        k >>= 1
        if not k:
            return result
        x = A.mul(x, x)


def _frobenius(A: FDAlgebra, basis):
    """(images, fixed) for z -> z^p on a commutative subalgebra over GF(p).

    images are the b^p of the given basis vectors, fixed a basis of
    {z : z^p = z}.  In characteristic p the map is GF(p)-linear on a
    commutative algebra, so the fixed space is the kernel of the map
    sending coefficients x to sum x_i (b_i^p - b_i).
    """
    f = A.field
    images = [_power(A, b, f.order) for b in basis]
    moved = [linalg.vec_sub(f, fb, b) for fb, b in zip(images, basis)]
    coeffs = linalg.kernel_basis(f, linalg.transpose(moved), len(basis))
    cols = linalg.transpose(basis)
    return images, [linalg.mat_vec(f, cols, x) for x in coeffs]


def _primitive_idempotents(A: FDAlgebra, one, basis):
    """The primitive idempotents of a commutative subalgebra C over GF(p).

    C is the span of basis, with unit one.  C is a product of local rings,
    and in each local factor Hensel's lemma lifts the roots of x^p - x
    only from GF(p), so the Frobenius fixed space is spanned by the
    primitive idempotents of C.  A fixed z is sum c_k eps_k over them, and
    by Fermat 1 - (z - c)^(p-1) is the sum of the eps_k with c_k = c;
    splitting by every basis vector of the fixed space separates them all.
    Certified: as many idempotents as the fixed space has dimensions,
    each e^2 = e, pairwise products 0, and the sum equal to one.
    """
    one = list(one)
    if len(basis) <= 1:
        return [one] if basis else []  # C = GF(p) one, or the zero ring
    f = A.field
    _, fixed = _frobenius(A, basis)
    parts = [one]
    for z in fixed:
        if len(parts) == len(fixed):
            break
        split = []
        for e in parts:
            ez = A.mul(e, z)
            rest = e
            for c in f.elements():
                shifted = linalg.vec_sub(f, ez, linalg.vec_scale(f, c, e))
                part = linalg.vec_sub(f, e, _power(A, shifted, f.order - 1))
                if not linalg.vec_is_zero(part):
                    split.append(part)
                    rest = linalg.vec_sub(f, rest, part)
                    if linalg.vec_is_zero(rest):
                        break
        parts = split
    _certify_idempotents(A, one, parts, len(fixed))
    return parts


def _certify_idempotents(A: FDAlgebra, one, idems, count: int) -> None:
    """Raise CheckFailure unless idems are count nonzero orthogonal
    idempotents summing to one."""
    f = A.field
    total = linalg.zero_vector(f, A.dim)
    for i, e in enumerate(idems):
        if linalg.vec_is_zero(e) or A.mul(e, e) != e:
            raise CheckFailure("idempotent splitting produced a non-idempotent")
        for e2 in idems[i + 1:]:
            if not (linalg.vec_is_zero(A.mul(e, e2))
                    and linalg.vec_is_zero(A.mul(e2, e))):
                raise CheckFailure("split idempotents are not orthogonal")
        total = linalg.vec_add(f, total, e)
    if len(idems) != count:
        raise CheckFailure(f"split gave {len(idems)} idempotents, the "
                           f"Frobenius fixed space has dimension {count}")
    if total != one:
        raise CheckFailure("split idempotents do not sum to the unit")


def central_primitive_idempotents(A: FDAlgebra):
    """The central primitive idempotents of a unital A over GF(p): one per
    block of A, certified by _primitive_idempotents on the centre.

    These are the minimal nonzero central idempotents, the points of the
    Pierce spectrum.  Over the rationals only a one-dimensional centre
    (A indecomposable, the answer [1]) is decided.  Computed once per
    algebra.
    """
    if A.unit is None:
        raise AlgebraError("central idempotents need a unital algebra")
    return [list(e) for e in memoized(A, "central idempotents", _central_idempotents)]


def _central_idempotents(A: FDAlgebra):
    Z = _centre(A)
    if not A.field.is_finite and Z.dim > 1:
        raise CapExceeded(f"central idempotents of a {Z.dim}-dimensional "
                          "centre need a finite base field")
    return _primitive_idempotents(A, A.unit, [list(b) for b in Z.basis])


def orthogonal_idempotents(A: FDAlgebra):
    """A complete set of orthogonal idempotents of a unital A over GF(p).

    Starts from the central primitive idempotents; then, for each basis
    vector b in order, replaces each idempotent e by the primitive
    idempotents of GF(p)[e, e b e].  That algebra is commutative with
    unit e and lies in e A e, so the set stays orthogonal and sums to 1.
    Deterministic; the pieces need not be primitive in A.
    """
    f = A.field
    idems = central_primitive_idempotents(A)
    for i in range(A.dim):
        b = A.basis_vector(i)
        refined = []
        for e in idems:
            g = A.mul(A.mul(e, b), e)
            span = IncrementalSpan(f, A.dim)
            span.add(e)
            y = g
            while span.add(y):
                y = A.mul(y, g)
            refined.extend(_primitive_idempotents(A, e, span.rows))
        idems = refined
    return idems


# ---------------------------------------------------------------------------
# simplicity


def is_field(A: FDAlgebra) -> bool:
    """Is the algebra a field?  Berlekamp's Frobenius test over GF(p).

    A commutative unital algebra over GF(p) is a product of local rings,
    and z -> z^p is GF(p)-linear on it.  Frobenius is injective exactly
    when there are no nonzero nilpotents, so that the local factors are
    fields; its fixed points form a copy of GF(p) in each local factor.
    Hence A is a field iff Frobenius is injective and fixes a
    one-dimensional subspace.  Non-unital or non-commutative algebras
    are not fields.  Over the rationals only the one-dimensional unital
    case is decided; anything else raises, on every call, rather than
    guessing.  A decided answer is computed once per algebra.
    """
    return memoized(A, "field", _is_field)


def _is_field(A: FDAlgebra) -> bool:
    if A.unit is None or A.dim == 0:
        return False
    if not A.is_commutative():
        return False
    f = A.field
    if not f.is_finite:
        if A.dim == 1:
            return True  # unital 1-dim algebra over a field is the field
        raise CapExceeded("field test over the rationals is only decided in dim 1")
    frob, fixed = _frobenius(A, [A.basis_vector(i) for i in range(A.dim)])
    return linalg.rank(f, frob) == A.dim and len(fixed) == 1


def _bimodule_rank(A: FDAlgebra, stop_at: int | None = None) -> int:
    """Dimension of the span of the operators x -> b_i x b_j.

    Counting stops once stop_at is reached.
    """
    f = A.field
    L = A.left_basis_mats()
    R = A.right_basis_mats()
    span = IncrementalSpan(f, A.dim * A.dim)
    for Li in L:
        for Rj in R:
            op = linalg.mat_mul(f, Rj, Li)
            span.add([a for row in op for a in row])
            if span.dim == stop_at:
                return span.dim
    return span.dim


def is_simple(A: FDAlgebra) -> bool:
    """Is the unital algebra A simple?  Decided by a density certificate.

    Let n = dim A, Z the centre of A with k = dim Z, and E the span of
    the operators x -> b_i x b_j.  A is simple exactly when (i) Z is a
    field (is_field) and (ii) dim E = n^2/k.  Proof sketch: E always lies
    in End_Z(A), which has dimension k (n/k)^2 = n^2/k when Z is a field.
    If A is simple, Z is a field by Schur's lemma (bimodule endomorphisms
    of A are multiplications by central elements) and the Jacobson
    density theorem gives E = End_Z(A).  Conversely, a two-sided ideal is
    an E-invariant subspace, and when E = End_Z(A) with Z a field the only
    such subspaces are 0 and A.  Both tests are polynomial in n, and the
    certificate is computed once per algebra.
    """
    if A.unit is None:
        raise AlgebraError("simplicity test needs a unital algebra")
    if A.dim == 0:
        raise AlgebraError("the zero algebra is not simple")
    if not A.field.is_finite:
        raise CapExceeded("simplicity test needs a finite base field")
    return memoized(A, "simple", _density_certificate)


def _density_certificate(A: FDAlgebra) -> bool:
    """The certificate of is_simple: a field centre and a dense bimodule."""
    Z = subalgebra_on(A, _centre(A))
    if not is_field(Z):
        return False
    target = A.dim * A.dim // Z.dim
    return _bimodule_rank(A, target) == target


def simplicity_witness(A: FDAlgebra):
    """None when A is simple; else a vector generating a proper nonzero ideal.

    Simplicity is decided by the certificate of is_simple.  The witness
    of a non-simple A comes from its structure: a nontrivial central
    primitive idempotent when A has several blocks, and otherwise (one
    block that is not simple, so not semisimple) the first basis vector
    of the Jacobson radical.  Either must generate a proper nonzero ideal.
    """
    if is_simple(A):
        return None
    blocks = central_primitive_idempotents(A)
    if len(blocks) > 1:
        wit = blocks[0]
    else:
        J = jacobson_radical(A)
        wit = list(J.basis[0]) if J.basis else None
    if wit is None or ideal_generated(A, [wit], "two", stop_at_full=True).is_full():
        raise CheckFailure("a non-simple algebra has no structural witness "
                           "of a proper ideal")
    return tuple(wit)


# ---------------------------------------------------------------------------
# modules


def regular_module(A: FDAlgebra) -> AlgebraModule:
    return AlgebraModule(A, A.dim, A.left_basis_mats())


def annihilator(M: AlgebraModule) -> Subspace:
    """{a : a.M = 0}, verified to be a two-sided ideal.

    One equation per matrix entry (r, c): sum_i a_i rho(b_i)[r][c] = 0.
    Entries that are zero in every rho(b_i) give no equation."""
    A = M.algebra
    f = A.field
    equations: dict = {}
    for i, R in enumerate(M.nonzero_rows()):
        for r, row in enumerate(R):
            for c, a in row:
                equations.setdefault((r, c), {})[i] = a
    rows = []
    for coeffs in equations.values():
        eq = linalg.zero_vector(f, A.dim)
        for i, a in coeffs.items():
            eq[i] = a
        rows.append(eq)
    if rows:
        ker = linalg.kernel_basis(f, rows, A.dim)
    else:
        ker = linalg.identity_matrix(f, A.dim)
    S = Subspace.from_vectors(f, A.dim, ker)
    if not is_ideal(A, S, "two"):
        raise CheckFailure("annihilator is not a two-sided ideal")
    return S


def submodule_generated(M: AlgebraModule, vectors,
                        stop_at_full: bool = False) -> Subspace:
    """Smallest submodule containing the vectors (span of v and rho(b_i)v)."""
    f = M.field
    if M.algebra.unit is None:
        raise AlgebraError("submodule generation assumes a unital algebra")
    span = IncrementalSpan(f, M.dim)
    for w in itertools.chain.from_iterable(
            itertools.chain([v], (M.act(i, v) for i in range(M.algebra.dim)))
            for v in vectors):
        span.add(w)
        if stop_at_full and span.is_full():
            break
    return Subspace(f, M.dim, span.rows, span.pivots)


def is_submodule(M: AlgebraModule, S: Subspace) -> bool:
    span = S._span()
    return all(span.contains(M.act(i, v))
               for v in S.basis for i in range(M.algebra.dim))


def module_simplicity_witness(M: AlgebraModule):
    """None when M is simple; else a proper nonzero submodule.

    The one irreducibility engine.  A line is simple over any field.
    Otherwise, within SIMPLICITY_POINT_BUDGET projective points it scans
    them in order and returns the submodule generated by the first point
    that does not generate M.  Beyond the budget it runs Norton's test
    (_norton_witness).  Deterministic.
    """
    if M.dim == 0:
        raise AlgebraError("the zero module is not simple")
    if M.dim == 1:
        return None
    if num_projective_points(M.field, M.dim) > SIMPLICITY_POINT_BUDGET:
        return _norton_witness(M)
    return _cyclic_witness(M, projective_points(M.field, M.dim))


def _cyclic_witness(M: AlgebraModule, points):
    """The proper submodule generated by the first of points that
    generates one, or None."""
    for v in points:
        S = submodule_generated(M, [v], stop_at_full=True)
        if not S.is_full():
            return S
    return None


def _norton_witness(M: AlgebraModule):
    """Norton's irreducibility test (Holt & Rees 1994): None when M is
    simple, else a proper nonzero submodule.

    A proper submodule U either meets ker theta (see _norton_theta), or
    theta is invertible on U; then ker theta^T lies in U^perp, a proper
    submodule of the dual (transposed) module.  So M is simple exactly
    when every point of ker theta and one vector of ker theta^T generate
    everything.  Complete when ker theta has at most
    SIMPLICITY_POINT_BUDGET points; raises CapExceeded otherwise.
    """
    f, n = M.field, M.dim
    found = _norton_theta(M)
    if found is None or num_projective_points(f, len(found[1])) > SIMPLICITY_POINT_BUDGET:
        raise CapExceeded("no basis element minus a scalar has a nonzero kernel "
                          f"of at most {SIMPLICITY_POINT_BUDGET} projective points")
    theta, ker = found
    cols = linalg.transpose(ker)
    S = _cyclic_witness(M, (linalg.mat_vec(f, cols, c)
                            for c in projective_points(f, len(ker))))
    if S is not None:
        return S
    # a module over the opposite algebra; generation reads only the mats
    dual = AlgebraModule(M.algebra, n, [linalg.transpose(X) for X in M.mats])
    w = linalg.kernel_basis(f, linalg.transpose(theta), n)[0]
    W = _cyclic_witness(dual, [w])
    if W is None:
        return None
    return Subspace.from_vectors(f, n, linalg.kernel_basis(f, W.basis, n))


def _norton_theta(M: AlgebraModule):
    """(theta, basis of ker theta) for the theta = rho(b_i) - c, over basis
    elements b_i and scalars c in order, with the smallest nonzero
    kernel; None when every such theta is invertible."""
    f, n = M.field, M.dim
    best = None
    for X in M.mats:
        for c in f.elements():
            theta = [[f.sub(a, c) if r == k else a for k, a in enumerate(row)]
                     for r, row in enumerate(X)]
            ker = linalg.kernel_basis(f, theta, n)
            if ker and (best is None or len(ker) < len(best[1])):
                best = theta, ker
                if len(ker) == 1:
                    return best
    return best


def quotient_coords(field: Field, N: Subspace):
    """(proj, lift): quotient coordinates on the complement of N's pivots.

    proj is (n-dim N) x n with kernel N; lift is a section, placing
    coordinates at the free columns.  proj @ lift = identity.
    """
    n = N.parent_dim
    pivset = set(N.pivots)
    free = [j for j in range(n) if j not in pivset]
    span = N._span()
    proj = []
    for i in range(n):
        e = linalg.zero_vector(field, n)
        e[i] = field.one
        w = span.reduce(e)
        proj.append([w[j] for j in free])
    proj = linalg.transpose(proj)  # rows indexed by free columns
    lift = linalg.zero_matrix(field, n, len(free))
    for k, j in enumerate(free):
        lift[j][k] = field.one
    return proj, lift


def quotient_module(M: AlgebraModule, N: Subspace):
    """(M/N, proj matrix). N must be a submodule."""
    if not is_submodule(M, N):
        raise AlgebraError("quotient by a non-submodule")
    f = M.field
    proj, _ = quotient_coords(f, N)
    # the lift places coordinates at the free columns: keep only those
    pivset = set(N.pivots)
    free = [j for j in range(M.dim) if j not in pivset]
    mats = [linalg.mat_mul(f, proj, [[row[j] for j in free] for row in Mi])
            for Mi in M.mats]
    return AlgebraModule(M.algebra, len(proj), mats), proj


def restrict_module(M: AlgebraModule, S: Subspace) -> AlgebraModule:
    """S as a module in its own coordinates. S must be a submodule."""
    if not is_submodule(M, S):
        raise AlgebraError("restriction to a non-submodule")
    mats = []
    for i in range(M.algebra.dim):
        rows = [S.coords_of(M.act(i, v)) for v in S.basis]
        mats.append(linalg.transpose(rows) if rows else [])
    return AlgebraModule(M.algebra, S.dim, mats)


def hom_space(M: AlgebraModule, N: AlgebraModule):
    """Basis of intertwiners H with H rho_M(b) = rho_N(b) H, as matrices."""
    if M.algebra.dim != N.algebra.dim:
        raise AlgebraError("hom space between modules over different algebras")
    f = M.field
    rows = []
    # unknowns H[r][c], flattened c-major within r
    for i in range(M.algebra.dim):
        Mi, Ni = M.mats[i], N.mats[i]
        for r in range(N.dim):
            for c in range(M.dim):
                row = linalg.zero_vector(f, N.dim * M.dim)
                for k in range(M.dim):
                    row[r * M.dim + k] = f.add(row[r * M.dim + k], Mi[k][c])
                for k in range(N.dim):
                    idx = k * M.dim + c
                    row[idx] = f.sub(row[idx], Ni[r][k])
                rows.append(row)
    if not rows:
        return []
    ker = linalg.kernel_basis(f, rows, N.dim * M.dim)
    mats = []
    for v in ker:
        mats.append([list(v[r * M.dim:(r + 1) * M.dim]) for r in range(N.dim)])
    return mats


def simple_modules_isomorphic(M: AlgebraModule, N: AlgebraModule) -> bool:
    """Iso test for simple modules: any nonzero intertwiner is invertible."""
    if M.dim != N.dim:
        return False
    homs = hom_space(M, N)
    if not homs:
        return False
    H = homs[0]
    if linalg.inverse_matrix(M.field, H) is None:
        raise CheckFailure("nonzero intertwiner between simples is not invertible")
    return True


# ---------------------------------------------------------------------------
# composition factors (meataxe-flavoured, deterministic)


def _composition_factors(M: AlgebraModule) -> list[AlgebraModule]:
    """The composition factors of a nonzero M, submodule side first.

    Splits M at the engine's witness W into W and M/W and recurses; by
    Jordan-Holder the factors, up to isomorphism and with multiplicity,
    do not depend on where M was split.
    """
    W = module_simplicity_witness(M)
    if W is None:
        return [M]
    return (_composition_factors(restrict_module(M, W))
            + _composition_factors(quotient_module(M, W)[0]))


def meataxe_simple_quotients(M: AlgebraModule) -> list[AlgebraModule]:
    """Pairwise non-isomorphic simple quotients of M.

    De-duplicates the composition factors of M up to isomorphism, then
    keeps those with a nonzero hom from M -- exactly the simple quotients,
    covering every composition factor of M modulo its radical.
    """
    factors: list[AlgebraModule] = []
    for S in _composition_factors(M) if M.dim else []:
        if not any(simple_modules_isomorphic(S, T) for T in factors):
            factors.append(S)
    return [S for S in factors if hom_space(M, S)]


# ---------------------------------------------------------------------------
# radical


def jacobson_radical(A: FDAlgebra, seed: int = 0) -> Subspace:
    """Intersection of the annihilators of the composition factors of A.

    Every simple A-module is a quotient of A, so a composition factor of
    the regular module, and the radical is the meet of their annihilators.

    Self-certifying: the result must be a nilpotent two-sided ideal with
    J^k = 0 for some k <= dim, and the search run again on A/J, for a
    nonzero proper J, must find zero (for J = 0 that search was just made).
    Computed once per algebra.  The search is deterministic, so seed is
    accepted for compatibility and changes no answer.
    """
    if A.unit is None:
        raise AlgebraError("radical needs a unital algebra")
    if A.dim == 0:
        return Subspace.zero(A.field, 0)
    return memoized(A, "radical", _radical)


def _radical_search(A: FDAlgebra) -> Subspace:
    """The meet of the annihilators of the composition factors of A,
    uncertified."""
    J = Subspace.full(A.field, A.dim)
    for S in _composition_factors(regular_module(A)):
        # J inside Ann(S) already (an isomorphic repeat, say): J ∩ Ann(S) = J
        if any(not linalg.vec_is_zero(row)
               for v in J.basis for row in S.action_matrix(v)):
            J = J.intersect(annihilator(S))
    return J


def _radical(A: FDAlgebra) -> Subspace:
    J = _radical_search(A)
    if not is_ideal(A, J, "two"):
        raise CheckFailure("radical candidate is not a two-sided ideal")
    if not is_nilpotent(A, J):
        raise CheckFailure("radical candidate is not nilpotent")
    if not J.is_zero() and not J.is_full():
        Q, _ = quotient_algebra(A, J)
        if not _radical_search(Q).is_zero():
            raise CheckFailure("A modulo its radical has nonzero radical")
    return J


def is_nilpotent(A: FDAlgebra, J: Subspace) -> bool:
    """Is J^k = 0 for some k?  The powers of a nilpotent J shrink
    strictly, so J^(dim A + 1) = 0 decides it."""
    power = J
    for _ in range(A.dim):
        if power.is_zero():
            return True
        power = Subspace.from_vectors(A.field, A.dim, [
            A.mul(list(u), list(v)) for u in power.basis for v in J.basis])
    return power.is_zero()


def radical_bruteforce(A: FDAlgebra, order_cap: int = RADICAL_ORDER_CAP) -> Subspace:
    """Oracle: {a : 1 - b a is invertible for every b}, by exhaustion."""
    if A.unit is None:
        raise AlgebraError("radical oracle needs a unital algebra")
    if not A.field.is_finite:
        raise CapExceeded("radical oracle needs a finite base field")
    if A.order() > order_cap:
        raise CapExceeded(f"radical oracle capped at order {order_cap}")
    f = A.field
    invertible: dict[tuple, bool] = {}

    def is_inv(v: tuple) -> bool:
        got = invertible.get(v)
        if got is None:
            got = linalg.inverse_matrix(f, A.left_mult_matrix(list(v))) is not None
            invertible[v] = got
        return got

    one = list(A.unit)
    members = []
    elems = [list(v) for v in A.elements()]
    for a in elems:
        Ra = A.right_mult_matrix(a)
        ok = True
        for b in elems:
            ba = linalg.mat_vec(f, Ra, b)
            if not is_inv(tuple(linalg.vec_sub(f, one, ba))):
                ok = False
                break
        if ok:
            members.append(a)
    S = Subspace.from_vectors(f, A.dim, members)
    if len(members) != f.order ** S.dim:
        raise CheckFailure("quasi-invertibility set is not a subspace")
    return S


# ---------------------------------------------------------------------------
# von Neumann regularity


def is_von_neumann_regular(A: FDAlgebra):
    """(flag, witness): does every a have x with a x a = a?

    A finite-dimensional unital algebra is Artinian, and an Artinian ring
    is von Neumann regular iff it is semisimple, iff J(A) = 0.  The
    witness of a nonzero radical is its first basis vector, certified by
    solving a x a = a, which must have no solution: a solution would make
    x a an idempotent of the nilpotent ideal J, so x a = 0 and a = 0.
    """
    J = jacobson_radical(A)
    if J.is_zero():
        return True, None
    f = A.field
    a = list(J.basis[0])
    M = linalg.mat_mul(f, A.left_mult_matrix(a), A.right_mult_matrix(a))
    if linalg.solve(f, M, a) is not None:
        raise CheckFailure("a radical vector is von Neumann regular")
    return False, tuple(a)


# ---------------------------------------------------------------------------
# centralizers, quotients, isomorphisms


def centralizer(A: FDAlgebra, S: Subspace) -> Subspace:
    """{a : as = sa for all s in S}. S must be multiplicatively closed."""
    for u in S.basis:
        for v in S.basis:
            if not S.contains(A.mul(list(u), list(v))):
                raise AlgebraError("centralizer input is not multiplicatively closed")
    f = A.field
    rows = []
    for s in S.basis:
        L = A.left_mult_matrix(list(s))
        R = A.right_mult_matrix(list(s))
        for r in range(A.dim):
            rows.append([f.sub(R[r][c], L[r][c]) for c in range(A.dim)])
    if not rows:
        return Subspace.full(f, A.dim)
    return Subspace.from_vectors(f, A.dim, linalg.kernel_basis(f, rows, A.dim))


def _centre(A: FDAlgebra) -> Subspace:
    """The centre of A, computed once per algebra."""
    return memoized(A, "centre", centralizer, Subspace.full(A.field, A.dim))


def quotient_algebra(A: FDAlgebra, I: Subspace):
    """(A/I, proj matrix). I must be a proper two-sided ideal."""
    if not is_ideal(A, I, "two"):
        raise AlgebraError("quotient by a non-ideal")
    f = A.field
    proj, _ = quotient_coords(f, I)
    q = len(proj)
    pivset = set(I.pivots)
    free = [j for j in range(A.dim) if j not in pivset]
    labels = [A.labels[j] for j in free]
    nonzero, zero = A.nonzero_table(), linalg.zero_vector(f, q)
    table = [[linalg.mat_vec(f, proj, A.table[jr][jc]) if nonzero[jr][jc]
              else zero for jc in free] for jr in free]
    unit = linalg.mat_vec(f, proj, list(A.unit)) if A.unit is not None else None
    if unit is not None and q == 0:
        unit = []
    return FDAlgebra(f, labels, table, unit), proj


def subalgebra_on(A: FDAlgebra, S: Subspace, labels=None) -> FDAlgebra:
    """The algebra structure on a multiplicatively closed subspace.

    Picks up a two-sided identity inside S when one exists.
    """
    basis = [list(b) for b in S.basis]
    try:
        table = [[S.coords_of(A.mul(u, v)) for v in basis] for u in basis]
    except AlgebraError:
        raise AlgebraError("subspace is not multiplicatively closed") from None
    if labels is None:
        labels = [f"s{i}" for i in range(S.dim)]
    B = FDAlgebra(A.field, labels, table)
    unit = find_unit(B)
    if unit is not None:
        B.unit = tuple(unit)
    return B


def find_unit(A: FDAlgebra, within: Subspace | None = None):
    """A two-sided identity vector of A, or with within the identity of
    that subspace (an ideal, say); None when there is none.

    The unknowns are the coordinates of u over the basis d_k of within
    (of A by default), and u d_m = d_m = d_m u are read equation by
    equation from the sparse products.
    """
    f = A.field
    if within is None:
        basis = [A.basis_vector(i) for i in range(A.dim)]
        table = A.nonzero_table()
    else:
        basis = [list(b) for b in within.basis]
        table = [[[(r, t) for r, t in enumerate(A.mul(u, v)) if t != 0]
                  for v in basis] for u in basis]
    n = len(basis)
    if n == 0:
        return None
    rows, rhs = [], []
    for m, d in enumerate(basis):
        for side in ([table[k][m] for k in range(n)], table[m]):
            eqs: dict[int, list] = {}
            for k, prod in enumerate(side):
                for r, t in prod:
                    eqs.setdefault(r, linalg.zero_vector(f, n))[k] = t
            if any(c != 0 and r not in eqs for r, c in enumerate(d)):
                return None  # u d_m or d_m u misses a coordinate of d_m
            rows += eqs.values()
            rhs += [d[r] for r in eqs]
    x = linalg.solve(f, rows, rhs)
    if x is None or within is None:
        return x
    return linalg.mat_vec(f, linalg.transpose(basis), x)


def check_ring_iso(A: FDAlgebra, B: FDAlgebra, mat) -> bool:
    """Does mat (dim B x dim A, columns = images) define a unital ring iso?"""
    if A.field != B.field:
        return False
    if A.dim != B.dim:
        return False
    f = A.field
    if len(mat) != B.dim or any(len(r) != A.dim for r in mat):
        raise AlgebraError("iso matrix has the wrong shape")
    if linalg.rank(f, mat) != A.dim:
        return False
    cols = linalg.transpose(mat)
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = linalg.mat_vec(f, mat, list(A.table[i][j]))
            rhs = B.mul(cols[i], cols[j])
            if lhs != rhs:
                return False
    if (A.unit is None) != (B.unit is None):
        return False
    if A.unit is not None:
        if linalg.mat_vec(f, mat, list(A.unit)) != list(B.unit):
            return False
    return True


# ---------------------------------------------------------------------------
# stock algebras


def scalar_algebra(field: Field) -> FDAlgebra:
    """The base field as a one-dimensional algebra."""
    return FDAlgebra(field, ["1"], [[[field.one]]], [field.one])


def matrix_algebra(field: Field, n: int) -> FDAlgebra:
    """M_n(F) on the matrix-unit basis e{i}{j}, 1-indexed."""
    labels = [f"e{i+1}{j+1}" for i in range(n) for j in range(n)]
    idx = {(i, j): i * n + j for i in range(n) for j in range(n)}
    dim = n * n
    table = []
    for i in range(n):
        for j in range(n):
            row = []
            for k in range(n):
                for l in range(n):
                    v = [field.zero] * dim
                    if j == k:
                        v[idx[i, l]] = field.one
                    row.append(v)
            table.append(row)
    unit = [field.zero] * dim
    for i in range(n):
        unit[idx[i, i]] = field.one
    return FDAlgebra(field, labels, table, unit)


def group_algebra(field: Field, elements, mul) -> FDAlgebra:
    """F[G] for a finite group given by element list and product map."""
    labels = list(elements)
    idx = {g: i for i, g in enumerate(labels)}
    dim = len(labels)
    table = []
    for g in labels:
        row = []
        for h in labels:
            v = [field.zero] * dim
            v[idx[mul(g, h)]] = field.one
            row.append(v)
        table.append(row)
    unit = None
    for e in labels:
        if all(mul(e, g) == g and mul(g, e) == g for g in labels):
            unit = [field.zero] * dim
            unit[idx[e]] = field.one
            break
    return FDAlgebra(field, labels, table, unit)

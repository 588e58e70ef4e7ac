"""Exhaustive oracles that pin down the structural routines in tests.

Each scan is sound and complete over a finite base field but walks every
element or every projective point, so the package itself never calls
them: they exist to be compared with the engine on algebras small enough
to enumerate.
"""

from gsheaf import linalg
from gsheaf.errors import CapExceeded
from gsheaf.exactalg import (FDAlgebra, Subspace, _join_closure,
                             ideal_generated, projective_points)
from gsheaf.isgring import FiniteInverseSemigroup

VNR_ORDER_CAP = 2**16


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
        if not ideal_generated(A, [v], "two", stop_at_full=True).is_full():
            return tuple(v)
    return None


def scan_two_sided_ideals(A: FDAlgebra) -> list[Subspace]:
    """The join-closure of the cyclic ideals of all projective points of
    A, at (p^n - 1)/(p - 1) ideal generations."""
    cyclics: dict[tuple, Subspace] = {}
    for v in projective_points(A.field, A.dim):
        I = ideal_generated(A, [v], "two")
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

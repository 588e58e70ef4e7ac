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

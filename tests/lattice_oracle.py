"""Kernels and solutions through the transform-tracking Smith engine: the
oracle that exacthom.linalg's Hermite routes for kernel_basis and solve are
checked against."""

from typing import Optional

from exacthom.errors import InputError
from exacthom.linalg import IntMatrix, _smith_engine, snf


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """A basis of the kernel lattice {x in Z^cols : a*x = 0}.

    The columns of the result are the basis; there are cols - rank(a) of
    them, and the lattice they span is saturated (any integer vector killed
    by a is an integer combination of the columns).
    """
    diag, _, vt = _smith_engine(a, transforms=True)
    rank = sum(1 for x in diag if x)
    n = a.cols
    kernel_cols = [vt[i] for i in range(rank, n)]
    return IntMatrix.from_rows(
        [[col[i] for col in kernel_cols] for i in range(n)], cols=len(kernel_cols)
    )


def solve(a: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """An integer solution x of a*x = b, or None when there is none.

    b may have several columns; they are solved simultaneously. The shapes
    must agree (a.rows == b.rows) or the call is rejected.
    """
    if a.rows != b.rows:
        raise InputError(f"cannot solve: a has {a.rows} rows but b has {b.rows}")
    dec = snf(a)
    c = dec.u @ b
    pivots = [x for x in dec.diagonal if x]
    rank = len(pivots)
    y = [[0] * b.cols for _ in range(a.cols)]
    for i, p in enumerate(pivots):
        crow = c.entries[i]
        yrow = y[i]
        for j, value in enumerate(crow):
            q, r = divmod(value, p)
            if r:
                return None
            yrow[j] = q
    for i in range(rank, a.rows):
        if any(c.entries[i]):
            return None
    return dec.v @ IntMatrix.from_rows(y, cols=b.cols)

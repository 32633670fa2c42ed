"""The transform-tracking Smith engine and the Smith forms, kernels and
solutions it gives: the oracle that exacthom.linalg's Hermite routes for
snf, smith_diagonal, kernel_basis and solve are checked against. Also the
Hermite loop whose column operations run through every row of the grid
(_hermite), the oracle for exacthom.linalg._hermite, which runs them over
the pivot column's nonzero rows only. And the pairwise gcd/lcm pass
(divisibility_chain), the oracle for exacthom.linalg._divisibility_chain,
which inserts each value into runs of equal entries."""

import math
from typing import Optional

from exacthom.errors import InputError
from exacthom.linalg import IntMatrix, SmithDecomposition, _EntrySwell


def divisibility_chain(values: list[int]) -> list[int]:
    """The invariant chain of diag(values), for positive values, in place.

    One pairwise gcd/lcm pass suffices: once position i has met every later
    one it divides all of them, and later steps only replace a later entry
    by a gcd or lcm of two multiples of it.
    """
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[j] % values[i]:
                g = math.gcd(values[i], values[j])
                values[i], values[j] = g, values[i] * values[j] // g
    return values


def _smallest_pivot(d: list[list[int]], t: int) -> tuple[int, int]:
    """Position of the first smallest-magnitude nonzero entry of the block
    d[t:][t:] in row-major order, stopping at the first unit; (-1, -1) when
    the block is zero."""
    best = 0
    pi = pj = -1
    for i in range(t, len(d)):
        row = d[i]
        for j in range(t, len(row)):
            x = row[j]
            if x:
                ax = -x if x < 0 else x
                if best == 0 or ax < best:
                    best, pi, pj = ax, i, j
                    if ax == 1:
                        return pi, pj
    return pi, pj


def submatrix(a: IntMatrix, rows, cols) -> IntMatrix:
    """The entries of a in the given rows and columns, in the order given."""
    return IntMatrix.from_rows([[a.entries[i][j] for j in cols] for i in rows], cols=len(cols))


def _smith_engine(a: IntMatrix, transforms: bool, bit_cap: int = 0, modulus: int = 0):
    """Diagonalize a by unimodular row/column operations.

    Returns (diag, u_rows, vt_rows) where diag has length min(rows, cols),
    u_rows are the rows of u, and vt_rows are the *columns* of v stored as
    rows (so column operations on the working matrix are row operations on
    vt_rows). u_rows and vt_rows are None unless transforms is set.

    A positive bit_cap raises _EntrySwell once any remaining entry outgrows
    it; callers that need only the diagonal use this to bail out of the rare
    inputs where elimination entries grow doubly exponentially.

    A nonzero modulus reduces the input and every row or column an operation
    touches to balanced residues in (-modulus/2, modulus/2]; the diagonal is
    then only meaningful modulo modulus (see _smith_diagonal_bounded), and
    callers request no transforms.
    """
    m, n = a.rows, a.cols
    half = modulus >> 1

    def balanced(row: list[int]) -> list[int]:
        return [x - modulus if x > half else x for x in [y % modulus for y in row]]

    d = [balanced(row) for row in a.entries] if modulus else a.to_lists()
    u = IntMatrix.identity(m).to_lists() if transforms else None
    vt = IntMatrix.identity(n).to_lists() if transforms else None

    def row_sub(i: int, t: int, q: int) -> None:
        d[i] = [x - q * y for x, y in zip(d[i], d[t])]
        if transforms:
            u[i] = [x - q * y for x, y in zip(u[i], u[t])]
        if modulus:
            d[i] = balanced(d[i])

    def col_sub(j: int, t: int, q: int) -> None:
        for r in range(t, m):  # rows above t are zero in column t
            row = d[r]
            x = row[t]
            if x:
                row[j] -= q * x
                if modulus:
                    x = row[j] % modulus
                    row[j] = x - modulus if x > half else x
        if transforms:
            vt[j] = [x - q * y for x, y in zip(vt[j], vt[t])]

    def swap_rows(i: int, t: int) -> None:
        d[i], d[t] = d[t], d[i]
        if transforms:
            u[i], u[t] = u[t], u[i]

    def swap_cols(j: int, t: int) -> None:
        for row in d:
            row[j], row[t] = row[t], row[j]
        if transforms:
            vt[j], vt[t] = vt[t], vt[j]

    def negate_row(t: int) -> None:
        d[t] = [-x for x in d[t]]
        if transforms:
            u[t] = [-x for x in u[t]]

    def negate_col(t: int) -> None:
        for row in d:
            row[t] = -row[t]
        if transforms:
            vt[t] = [-x for x in vt[t]]

    limit = min(m, n)
    t = 0
    while t < limit:
        pi, pj = _smallest_pivot(d, t)
        if pi < 0:
            break  # the remaining submatrix is zero
        if pi != t:
            swap_rows(pi, t)
        if pj != t:
            swap_cols(pj, t)

        while True:
            if d[t][t] < 0:
                negate_row(t)
            # Column phase: Euclidean reduction below the pivot. Quotients
            # are rounded to nearest, keeping |remainder| <= pivot/2; without
            # this the transform rows can swell exponentially on inputs a few
            # hundred columns wide.
            again = True
            while again:
                again = False
                p = d[t][t]
                for i in range(t + 1, m):
                    x = d[i][t]
                    if x:
                        q = (x + (p >> 1)) // p
                        if q:
                            row_sub(i, t, q)
                        if d[i][t]:  # remainder becomes the new, smaller pivot
                            swap_rows(i, t)
                            if d[t][t] < 0:
                                negate_row(t)
                            p = d[t][t]
                            again = True
            # Row phase: Euclidean reduction right of the pivot. A column
            # swap here can reintroduce entries below the pivot, which the
            # outer loop detects and clears.
            again = True
            while again:
                again = False
                p = d[t][t]
                row_t = d[t]
                for j in range(t + 1, n):
                    x = row_t[j]
                    if x:
                        q = (x + (p >> 1)) // p
                        if q:
                            col_sub(j, t, q)
                        if row_t[j]:
                            swap_cols(j, t)
                            if row_t[t] < 0:
                                negate_col(t)
                            p = row_t[t]
                            again = True
            if any(d[i][t] for i in range(t + 1, m)):
                continue
            # Divisibility enforcement: the pivot must divide the remaining
            # submatrix so the diagonal chains; fold an offending row in and
            # re-run the reduction (the pivot gcd strictly decreases).
            p = d[t][t]
            bad = -1
            if p != 1:
                for i in range(t + 1, m):
                    row = d[i]
                    for j in range(t + 1, n):
                        if row[j] % p:
                            bad = i
                            break
                    if bad >= 0:
                        break
            if bad < 0:
                break
            row_sub(t, bad, -1)
        t += 1
        if bit_cap and any(
            x.bit_length() > bit_cap for row in d[t:] for x in row[t:] if x
        ):
            raise _EntrySwell

    diag = [d[i][i] for i in range(limit)]
    return diag, u, vt


def snf(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form of a: u*a*v = d with u, v unimodular."""
    diag, u, vt = _smith_engine(a, transforms=True)
    d = IntMatrix.diagonal(diag, rows=a.rows, cols=a.cols)
    u_mat = IntMatrix(a.rows, a.rows, tuple(map(tuple, u)))
    v_mat = IntMatrix(a.cols, a.cols, tuple(zip(*vt)))
    return SmithDecomposition(u_mat, d, v_mat)


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


def _hermite(d: list[list[int]], m: int, n: int, modulus: int = 0) -> list[int]:
    """Put the first m rows of the n-column grid d in column Hermite form
    (see hnf), in place, and return the pivot row of each nonzero column.

    Every column operation runs through all rows of d, so rows stacked below
    the first m record the transform. A nonzero modulus brings the rows not
    yet reduced back to balanced residues in (-modulus/2, modulus/2] before
    each pivot row (see _smith_diagonal_bounded); rows above it no longer
    change."""

    def col_sub(j: int, t: int, q: int) -> None:
        for row in d:
            x = row[t]
            if x:
                row[j] -= q * x

    def swap_cols(j: int, t: int) -> None:
        for row in d:
            row[j], row[t] = row[t], row[j]

    pivot_rows: list[int] = []
    t = 0
    half = modulus >> 1
    for i in range(m):
        if t >= n:
            break
        if modulus:
            for r in d[i:]:
                r[:] = [x - modulus if x > half else x for x in [y % modulus for y in r]]
        row = d[i]
        # Euclidean reduction across columns t.. to put gcd at column t.
        while True:
            best = 0
            pj = -1
            for j in range(t, n):
                x = row[j]
                if x:
                    ax = -x if x < 0 else x
                    if best == 0 or ax < best:
                        best, pj = ax, j
                        if ax == 1:
                            break
            if pj < 0:
                break
            if pj != t:
                swap_cols(pj, t)
            if row[t] < 0:
                for r in d:
                    r[t] = -r[t]
            clean = True
            p = row[t]
            for j in range(t + 1, n):
                x = row[j]
                if x:
                    q = (x + (p >> 1)) // p  # nearest quotient limits growth
                    if q:
                        col_sub(j, t, q)
                    if row[j]:
                        clean = False
            if clean:
                break
        if row[t]:
            p = row[t]
            for j in range(t):
                q = row[j] // p
                if q:
                    col_sub(j, t, q)
            pivot_rows.append(i)
            t += 1
    return pivot_rows

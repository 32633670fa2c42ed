"""Exact linear algebra over the integers.

Everything works with Python's arbitrary-precision ints; there is no floating
point, and a product is one loop over the nonzeros of both factors. Matrices
are immutable value objects, and zero-dimensional matrices (0 rows or 0
columns) are legal inputs everywhere. IntMatrix is dense and has the
product; SparseMatrix holds the differentials of chain complexes and the
actions of group modules as columns {row: nonzero}, and its dense entries
view is built on each read, for tests, checks and tracing.

Conventions:
  * matrices act on column vectors, so a matrix with r rows and c columns is
    a map Z^c -> Z^r and its columns are the images of the source basis;
  * snf(a) returns (u, d, v) with u*a*v = d, u and v unimodular, d diagonal
    with nonnegative entries forming a divisibility chain d1 | d2 | ...;
  * hnf(a) is the column-style Hermite normal form of the column lattice of
    a: pivots positive and strictly descending, the entries to the left of a
    pivot in its row reduced into [0, pivot), zero columns removed;
  * kernel_basis(a) returns a matrix whose columns are a basis of the full
    kernel lattice {x : a*x = 0} (saturated by construction).

hnf's column loop, _hermite, is the one elimination loop. kernel_basis and
solve run it on a stacked over the identity (Cohen, GTM 138, section 2.4).
Each of its column operations runs over the rows where the pivot column is
nonzero, listed once the pivot is in place, and not over every stacked row.
The Smith forms come from _diagonalize, which alternates column Hermite
forms of a and of its transpose until a is diagonal (Kannan and Bachem,
SIAM J. Comput. 8, 1979); the Hermite reductions keep snf's transforms
short. snf then makes the diagonal a divisibility chain by 2 x 2 unimodular
gcd/lcm steps. smith_diagonal runs without transforms under a bit-length
cap that scales with the Hadamard bound. On the rare inputs whose entries
outgrow it, it switches to the bounded modular route
(_smith_diagonal_bounded): one fraction-free Bareiss pass (_bareiss, shared
with det) finds the rank and a maximal nonzero minor D, and the same
alternation then runs with entries kept in balanced residues mod D; the
diagonal it leaves becomes an invariant chain through _divisibility_chain,
the gcd/lcm step that abelian.from_cyclic_orders uses too.

_kron, the one dense Kronecker product, builds only powers.induced_map's
tensor powers and verify's contraction naturality check; module actions
are sparse, and grouphom writes their tensor products column by column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress, repeat
from typing import Iterable, Optional, Sequence

from .errors import InputError

__all__ = [
    "IntMatrix",
    "SparseMatrix",
    "SmithDecomposition",
    "snf",
    "smith_diagonal",
    "hnf",
    "kernel_basis",
    "solve",
    "det",
]


# Python refuses int <-> str conversions past 4300 digits by default, and
# entries, group orders and Smith transforms of inputs with long entries
# pass that. Longer numbers are split in halves until each half converts. Every
# conversion of an entry, a group order or a parsed group term goes through
# this pair; each tries plain str/int first, so ordinary numbers pay only
# that try.
def _int_to_decimal(x: int) -> str:
    try:
        return str(x)
    except ValueError:
        pass
    if x < 0:
        return "-" + _int_to_decimal(-x)
    k = x.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    high, low = divmod(x, 10**k)
    return _int_to_decimal(high) + _int_to_decimal(low).zfill(k)


def _decimal_to_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        body = text.strip()
        digits = body[1:] if body[:1] in ("+", "-") else body
        if not (digits.isascii() and digits.isdigit()):
            raise
    k = len(digits) // 2
    value = _decimal_to_int(digits[:-k]) * 10**k + _decimal_to_int(digits[-k:])
    return -value if body[0] == "-" else value


def _kron(a: "IntMatrix", b: "IntMatrix") -> "IntMatrix":
    """The Kronecker product, a's indices major: entry ((i, k), (j, l)) is a_ij * b_kl."""
    rows = tuple(tuple([x * y for x in ar for y in br]) for ar in a.entries for br in b.entries)
    return IntMatrix(a.rows * b.rows, a.cols * b.cols, rows)


@dataclass(frozen=True)
class IntMatrix:
    """An immutable rows x cols integer matrix stored as a tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise InputError("row count does not match declared shape")
        for row in self.entries:
            if len(row) != self.cols:
                raise InputError("row length does not match declared shape")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], cols: Optional[int] = None) -> "IntMatrix":
        grid = tuple(tuple(map(int, row)) for row in rows)
        if cols is None:
            if not grid:
                raise InputError("cols is required for a matrix with no rows")
            cols = len(grid[0])
        return cls(len(grid), cols, grid)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        # row i is the slice of zeros, 1, zeros that puts the 1 at i
        line = (0,) * n + (1,) + (0,) * n
        return cls(n, n, tuple(line[n - i : 2 * n - i] for i in range(n)))

    @classmethod
    def diagonal(cls, values: Sequence[int], rows: Optional[int] = None, cols: Optional[int] = None) -> "IntMatrix":
        values = [int(v) for v in values]
        if rows is None:
            rows = len(values)
        if cols is None:
            cols = len(values)
        if len(values) > min(rows, cols):
            raise InputError("too many diagonal values for the requested shape")
        grid = [[0] * cols for _ in range(rows)]
        for i, v in enumerate(values):
            grid[i][i] = v
        return cls(rows, cols, tuple(map(tuple, grid)))

    @classmethod
    def column(cls, values: Sequence[int]) -> "IntMatrix":
        return cls(len(values), 1, tuple((int(v),) for v in values))

    # -- accessors ---------------------------------------------------------

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.entries)) if self.rows else tuple(() for _ in range(self.cols)))

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        rows, inner, cols = self.rows, other.rows, other.cols
        # Row-sparse view of the right factor, whose zeros compress skips in C
        b_columns = range(cols)
        sparse_rows = [[(j, row[j]) for j in compress(b_columns, row)] for row in other.entries]
        out = [[0] * cols for _ in range(rows)]
        a_columns = range(inner)
        for arow, orow in zip(self.entries, out):
            for k in compress(a_columns, arow):
                a = arow[k]
                for j, b in sparse_rows[k]:
                    orow[j] += a * b
        return IntMatrix(rows, cols, tuple(map(tuple, out)))

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"<empty {self.rows}x{self.cols}>"
        text = [[_int_to_decimal(x) for x in row] for row in self.entries]
        widths = [max(len(text[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        return "\n".join(
            "[" + "  ".join(t.rjust(w) for t, w in zip(row, widths)) + "]" for row in text
        )


@dataclass(frozen=True)
class SparseMatrix:
    """An immutable rows x cols integer matrix stored by columns.

    columns[j] maps the row of each nonzero entry of column j to its value;
    no column holds an explicit zero. Chain complexes keep their
    differentials in this form, since the Koszul-type and bar
    differentials have only a few nonzeros per column.
    """

    rows: int
    cols: int
    columns: tuple[dict[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        if self.rows < 0 or self.cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        if len(self.columns) != self.cols:
            raise InputError("column count does not match declared shape")
        rows = range(self.rows)
        for col in self.columns:
            if not isinstance(col, dict) or not all(
                type(i) is int and i in rows and type(x) is int and x for i, x in col.items()
            ):
                raise InputError("a column must map int rows in range to nonzero int entries")

    @classmethod
    def _unchecked(cls, rows: int, cols: int, columns: tuple[dict[int, int], ...]) -> "SparseMatrix":
        """A matrix from columns valid by construction, as the complex
        builders write them; their tests check the columns instead."""
        m = object.__new__(cls)
        for name, value in (("rows", rows), ("cols", cols), ("columns", columns)):
            object.__setattr__(m, name, value)
        return m

    @classmethod
    def from_dense(cls, m: IntMatrix) -> "SparseMatrix":
        every = range(m.rows)
        dense = zip(*m.entries) if m.rows else repeat((), m.cols)
        columns = tuple({i: col[i] for i in compress(every, col)} for col in dense)
        return cls._unchecked(m.rows, m.cols, columns)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows, built on every call: for the Smith diagonal, tests
        and tracing."""
        grid = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                grid[i][j] = x
        return tuple(map(tuple, grid))

    def is_zero(self) -> bool:
        return not any(self.columns)


@dataclass(frozen=True)
class SmithDecomposition:
    """A Smith normal form u*a*v = d with u, v unimodular."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    def __post_init__(self) -> None:
        if self.u.rows != self.u.cols or self.u.rows != self.d.rows:
            raise InputError("u must be square with the same row count as d")
        if self.v.rows != self.v.cols or self.v.cols != self.d.cols:
            raise InputError("v must be square with the same column count as d")
        diag = self.diagonal
        for i, row in enumerate(self.d.entries):
            for j, x in enumerate(row):
                if i != j and x:
                    raise InputError("d must be diagonal")
        seen_zero = False
        for i, x in enumerate(diag):
            if x < 0:
                raise InputError("diagonal entries must be nonnegative")
            if x == 0:
                seen_zero = True
            elif seen_zero:
                raise InputError("zero diagonal entries must trail the nonzero ones")
            if i > 0 and diag[i - 1] and x % diag[i - 1]:
                raise InputError("diagonal entries must form a divisibility chain")

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.d.rows, self.d.cols)
        return tuple(self.d.entries[i][i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x)


class _EntrySwell(Exception):
    """Internal: the integral elimination is blowing up, switch strategies."""


def _bareiss(a: IntMatrix) -> tuple[int, int]:
    """The rank r of a and the signed last pivot of fraction-free (Bareiss)
    elimination, each pivot the first nonzero entry of the remaining block
    in row-major order.

    The sign flips on every row swap and every column swap, so for a square
    a of full rank the signed pivot is det(a). In every case its absolute
    value is a nonzero r x r minor of a (1 when r = 0). Every intermediate
    entry is itself a minor of a, whatever the pivots, so nothing here can
    swell past the Hadamard bound.
    """
    m, n = a.rows, a.cols
    d = a.to_lists()
    prev = sign = 1
    r = 0
    while r < min(m, n):
        pi, pj = next(((i, j) for i in range(r, m) for j in range(r, n) if d[i][j]), (-1, -1))
        if pi < 0:
            break
        if pi != r:
            d[pi], d[r] = d[r], d[pi]
            sign = -sign
        if pj != r:
            for row in d:
                row[pj], row[r] = row[r], row[pj]
            sign = -sign
        pivot = d[r][r]
        prow = d[r]
        for i in range(r + 1, m):
            row = d[i]
            f = row[r]
            for j in range(r + 1, n):
                row[j] = (row[j] * pivot - f * prow[j]) // prev
            row[r] = 0
        prev = pivot
        r += 1
    return r, sign * prev


def _smith_diagonal_bounded(a: IntMatrix) -> tuple[int, ...]:
    """Smith diagonal via elimination modulo a maximal nonzero minor.

    With D that minor, every invariant factor of a divides D, and the
    lattice spanned by the columns of a together with D*Z^rows is unchanged
    by reducing any entry mod D (that is a column operation against the
    D*Z^rows part, which row operations preserve). Eliminating with all
    entries kept in balanced residues therefore terminates with entries
    bounded by D/2, and Z^rows / lattice = (+) Z/gcd(pivot, D) (+) copies of
    Z/D; dropping rows - rank copies of D from that chain leaves exactly the
    nonzero invariant factors of a.
    """
    rank, minor = _bareiss(a)
    big_d = abs(minor)
    limit = min(a.rows, a.cols)
    diag = _diagonalize(a.to_lists(), a.rows, a.cols, [], [], modulus=big_d)
    # a zero pivot (the block left over was zero mod D) counts as a copy of Z/D
    values = [math.gcd(p, big_d) for p in diag]
    values += [big_d] * (a.rows - limit)
    return tuple(_divisibility_chain(values)[:rank]) + (0,) * (limit - rank)


def _divisibility_chain(values: list[int]) -> list[int]:
    """The invariant chain of diag(values), for positive values, in place.

    Each value is inserted from the top of the chain built so far, kept as
    runs [entry, count] with the largest entry first: an entry and the value
    carried down become their lcm and gcd, a run whose entry the carry
    divides is passed over whole, and the last carry is the new bottom
    entry. Prime by prime this is insertion into a sorted list of
    exponents, and a repeated order costs one step per run, not per value.
    """
    if len(values) < 2:
        return values
    runs: list[list[int]] = []
    for carry in values:
        i = 0
        while carry > 1 and i < len(runs):
            run = runs[i]
            if run[0] % carry:
                # the run's top entry becomes the lcm, and its gcd goes on down
                g = math.gcd(run[0], carry)
                top = run[0] // g * carry
                if i and runs[i - 1][0] == top:
                    runs[i - 1][1] += 1
                else:
                    runs.insert(i, [top, 1])
                    i += 1
                run[1] -= 1
                if not run[1]:
                    del runs[i]
                    i -= 1
                carry = g
            i += 1
        if runs and runs[-1][0] == carry:
            runs[-1][1] += 1
        else:
            runs.append([carry, 1])
    values[:] = chain.from_iterable(repeat(e, c) for e, c in reversed(runs))
    return values


def _diagonalize(
    d: list[list[int]],
    m: int,
    n: int,
    v: list[list[int]],
    ut: list[list[int]],
    modulus: int = 0,
    bit_cap: int = 0,
) -> list[int]:
    """Diagonalize the m x n grid d in place and return its diagonal, whose
    entries are nonnegative with the zeros trailing.

    Alternates _hermite on d stacked over v (column operations, so the rows
    of v record V) with _hermite on the transpose of d stacked over ut (row
    operations, so the rows of ut record the transpose of U) until d is
    diagonal (Kannan and Bachem, SIAM J. Comput. 8, 1979). Either of v and
    ut may be []. modulus is _hermite's; a positive bit_cap raises
    _EntrySwell once an entry of d outgrows it after a pass.
    """

    def settled() -> bool:
        if bit_cap and max(map(abs, chain.from_iterable(d)), default=0).bit_length() > bit_cap:
            raise _EntrySwell
        return not any(any(row[:i]) or any(row[i + 1 :]) for i, row in enumerate(d))

    while True:
        _hermite(d + v, m, n, modulus)
        if settled():
            break
        t = [list(col) for col in zip(*d)]
        _hermite(t + ut, n, m, modulus)
        d[:] = [list(row) for row in zip(*t)]
        if settled():
            break
    return [d[i][i] for i in range(min(m, n))]


def snf(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form of a: u*a*v = d with u, v unimodular."""
    m, n = a.rows, a.cols
    v = IntMatrix.identity(n).to_lists()
    ut = IntMatrix.identity(m).to_lists()
    diag = _diagonalize(a.to_lists(), m, n, v, ut)
    # a pairwise gcd/lcm pass, each step a unimodular operation on rows
    # i, j of u and columns i, j of v: with g = gcd(x, y), s*(x/g) = 1 mod
    # y/g and s*x + t*y = g, it turns diag(x, y) into diag(g, x*y/g).
    rank = len(diag) - diag.count(0)
    for i in range(rank):
        for j in range(i + 1, rank):
            x, y = diag[i], diag[j]
            if y % x:
                g = math.gcd(x, y)
                xg, yg = x // g, y // g
                s = pow(xg, -1, yg)
                t = (g - s * x) // y
                for row in ut:
                    ui, uj = row[i], row[j]
                    row[i], row[j] = s * ui + t * uj, xg * uj - yg * ui
                for row in v:
                    vi, vj = row[i], row[j]
                    row[i], row[j] = vi + vj, s * xg * vj - t * yg * vi
                diag[i], diag[j] = g, x * yg
    u_mat = IntMatrix(m, m, tuple(zip(*ut)))
    v_mat = IntMatrix(n, n, tuple(map(tuple, v)))
    return SmithDecomposition(u_mat, IntMatrix.diagonal(diag, rows=m, cols=n), v_mat)


def smith_diagonal(a: IntMatrix) -> tuple[int, ...]:
    """The diagonal of the Smith normal form, without the transforms.

    Runs the integral elimination first under a bit-length cap that scales
    with the Hadamard bound and, on the rare inputs whose entries outgrow it,
    switches to the bounded modular route; the answer is identical either
    way and no input can make this blow up.
    """
    m, n = a.rows, a.cols
    bits = max(map(abs, chain.from_iterable(a.entries)), default=0).bit_length()
    # a k x k minor has at most k * (bits + log2(k) / 2) bits
    cap = 64 + min(m, n) * (bits + max(m, n).bit_length())
    try:
        diag = _diagonalize(a.to_lists(), m, n, [], [], bit_cap=cap)
    except _EntrySwell:
        return _smith_diagonal_bounded(a)
    rank = len(diag) - diag.count(0)
    return tuple(_divisibility_chain(diag[:rank])) + (0,) * (len(diag) - rank)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """A basis of the kernel lattice {x in Z^cols : a*x = 0}.

    The columns of the result are the basis; there are cols - rank(a) of
    them, and the lattice they span is saturated (any integer vector killed
    by a is an integer combination of the columns).
    """
    m, n = a.rows, a.cols
    d = a.to_lists() + IntMatrix.identity(n).to_lists()
    # d[m:] becomes a unimodular t with a*t = (h | 0), h of full column rank
    rank = len(_hermite(d, m, n))
    return IntMatrix.from_rows([row[rank:] for row in d[m:]], cols=n - rank)


def solve(a: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """An integer solution x of a*x = b, or None when there is none.

    b may have several columns; they are solved simultaneously. The shapes
    must agree (a.rows == b.rows) or the call is rejected.
    """
    if a.rows != b.rows:
        raise InputError(f"cannot solve: a has {a.rows} rows but b has {b.rows}")
    m, n = a.rows, a.cols
    d = a.to_lists() + IntMatrix.identity(n).to_lists()
    pivots = _hermite(d, m, n)
    # a*t = (h | 0) and h is triangular on its pivot rows, so h*y = b has at
    # most one solution y there, and x = t*(y; 0) is one iff the rest agree
    y: list[list[int]] = []
    for c, i in enumerate(pivots):
        y.append([])
        for j, value in enumerate(b.entries[i]):
            q, r = divmod(value - sum(d[i][k] * y[k][j] for k in range(c)), d[i][c])
            if r:
                return None
            y[c].append(q)
    t = IntMatrix.from_rows([row[: len(pivots)] for row in d[m:]], cols=len(pivots))
    x = t @ IntMatrix.from_rows(y, cols=b.cols)
    return x if a @ x == b else None


def _hermite(d: list[list[int]], m: int, n: int, modulus: int = 0) -> list[int]:
    """Put the first m rows of the n-column grid d in column Hermite form
    (see hnf), in place, and return the pivot row of each nonzero column.

    Column operations act on every row of d, so rows stacked below the
    first m record the transform, but col_j -= q*col_t and the sign flip of
    column t change only the rows where the pivot column t is nonzero. Those
    rows are listed each time the pivot is brought to column t, and the
    operations run over the list, which holds until column t next changes
    by a swap. A nonzero modulus brings the rows not yet reduced back to
    balanced residues in (-modulus/2, modulus/2] before each pivot row (see
    _smith_diagonal_bounded); rows above it no longer change."""
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
                for r in d:
                    r[pj], r[t] = r[t], r[pj]
            support = [r for r in d if r[t]]
            if row[t] < 0:
                for r in support:
                    r[t] = -r[t]
            clean = True
            p = row[t]
            for j in range(t + 1, n):
                x = row[j]
                if x:
                    q = (x + (p >> 1)) // p  # nearest quotient limits growth
                    if q:
                        for r in support:
                            r[j] -= q * r[t]
                    if row[j]:
                        clean = False
            if clean:
                break
        if row[t]:
            p = row[t]
            for j in range(t):
                q = row[j] // p
                if q:
                    for r in support:
                        r[j] -= q * r[t]
            pivot_rows.append(i)
            t += 1
    return pivot_rows


def hnf(a: IntMatrix) -> IntMatrix:
    """Column-style Hermite normal form of the column lattice of a.

    Pivots are positive and strictly descend row by row, entries to the left
    of a pivot in its row lie in [0, pivot), and zero columns are removed, so
    two matrices have equal column lattices iff their forms are identical.
    """
    d = a.to_lists()
    t = len(_hermite(d, a.rows, a.cols))
    return IntMatrix.from_rows([r[:t] for r in d], cols=t)


def det(a: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise InputError("determinant requires a square matrix")
    rank, pivot = _bareiss(a)
    return pivot if rank == a.rows else 0


def _capped_product(factors: Sequence[int], cap: int) -> int:
    """The product of nonnegative factors, or cap when it is at least cap."""
    if 0 in factors:
        return 0
    out = 1
    for x in factors:
        out *= x
        if out >= cap:
            return cap
    return out


def _capped_power(x: int, e: int, cap: int) -> int:
    """x^e for x >= 0, or cap when it is at least cap; x^e is past cap for
    every x >= 2 once e reaches cap's bit length."""
    return _capped_product((x,) * min(e, cap.bit_length()), cap)

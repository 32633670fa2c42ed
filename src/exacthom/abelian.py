"""Finitely generated abelian groups and chain complexes of free ones.

A group is kept in invariant-factor canonical form, so two groups are
isomorphic exactly when they compare equal.

Homology of a complex of free abelian groups is computed in two steps.
First the complex is reduced (Kaczynski, Mischaikow and Mrozek,
*Computational Homology*, 2004; Dumas, Heckenbach, Saunders and Welker,
"Computing simplicial homology based on efficient Smith normal form
algorithms", 2003): going up the degrees, each differential is cancelled
pivot by pivot by Schur-complement updates. One rule picks every pivot x,
from the shortest row that offers one: among the row's units, the one
whose column has the fewest nonzeros (Markowitz, "The elimination form of
the inverse and its application to linear programming", 1957), which
keeps the fill-in of the updates down; in a row with no unit, its first
entry of least |x| when that divides its whole row and column. Each
cancellation drops one basis element from each of the two terms it joins;
a unit keeps the homology over Z unchanged, and any other pivot splits off
Z --x--> Z, whose Z/|x| is recorded as torsion of the lower term. Then
each surviving differential, the small remainder that the cancellations
could not split, is eliminated once by a transform-free Smith diagonal
(one with no nonzero entry is skipped: it has rank 0 and no invariant
factors): H_p is free of rank r_p - rank d_p - rank d_(p-1), and its
torsion is the recorded factors of the differential d_p arriving at
degree p together with the remainder's invariant factors > 1, merged by
the gcd/lcm step of linalg.
homologies reads every degree of a complex off one reduction; homology and
homology_at reduce only the terms around one degree.

Complexes store their differentials sparse, as linalg.SparseMatrix
columns {row: nonzero}: the Koszul, tensor and bar builders write columns
directly, d(d(x)) = 0 is checked by an exact sparse column product, and
the reduction copies the columns once into its working dicts and returns
its survivors as columns too. Only the survivors handed to the Smith
diagonal are made dense.

This is the only route from a matrix to a group: canonical_form takes the
cokernel of a presentation matrix as H_0 of the two-term complex
Z^rows <- Z^cols, and kernel ranks are read as its H_1. Only
from_cyclic_orders, whose input is already diagonal, skips the reduction
and passes its nonzero orders through the gcd/lcm step of linalg.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Sequence

from .errors import ComplexValidityError, InputError
from .linalg import IntMatrix, SparseMatrix, _divisibility_chain, _int_to_decimal, smith_diagonal

__all__ = [
    "FgAbGroup",
    "ChainComplex",
    "canonical_form",
    "from_cyclic_orders",
    "homology_at",
    "homology",
    "homologies",
]


@dataclass(frozen=True)
class FgAbGroup:
    """Z^free_rank plus one Z/d per invariant factor, d1 | d2 | ..., each >= 2."""

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise InputError("free rank must be nonnegative")
        factors = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        for d in factors:
            if d < 2:
                raise InputError("invariant factors must be at least 2")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise InputError("invariant factors must form a divisibility chain")

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def order(self) -> int | None:
        """Number of elements, or None when the group is infinite."""
        if self.free_rank:
            return None
        return self.torsion_order()

    def torsion_order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def __str__(self) -> str:
        parts: list[str] = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{_int_to_decimal(self.free_rank)}")
        parts.extend(f"Z/{_int_to_decimal(d)}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def canonical_form(presentation: IntMatrix | SparseMatrix) -> FgAbGroup:
    """The cokernel Z^rows / (column span of the presentation matrix).

    This is H_0 of the two-term complex Z^rows <- Z^cols, given dense or
    sparse, so it is read off one reduction like every other homology group.
    """
    return homologies(ChainComplex(0, (presentation.rows, presentation.cols), (presentation,)))[0]


def from_cyclic_orders(orders: Sequence[int]) -> FgAbGroup:
    """Direct sum of cyclic groups Z/order, with order 0 meaning Z."""
    orders = [int(x) for x in orders]
    if any(x < 0 for x in orders):
        raise InputError("cyclic orders must be nonnegative")
    chain = _divisibility_chain([x for x in orders if x > 1])
    return FgAbGroup(orders.count(0), tuple(x for x in chain if x > 1))


@dataclass(frozen=True)
class ChainComplex:
    """A bounded complex of free abelian groups.

    ranks[p] is the rank of the term in degree bottom_degree + p, and
    differentials[p] maps the term in degree bottom_degree + p + 1 to the
    one in degree bottom_degree + p. Differentials may be given dense or
    sparse and are stored sparse. Construction validates both the shape
    chaining and d(d(x)) = 0, the latter by an exact sparse product.
    """

    bottom_degree: int
    ranks: tuple[int, ...]
    differentials: tuple[SparseMatrix, ...]

    def __post_init__(self) -> None:
        ranks = tuple(int(r) for r in self.ranks)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "differentials", tuple(
            d if isinstance(d, SparseMatrix) else SparseMatrix.from_dense(d)
            for d in self.differentials
        ))
        if not ranks:
            raise ComplexValidityError("a complex needs at least one term")
        if any(r < 0 for r in ranks):
            raise ComplexValidityError("ranks must be nonnegative")
        if len(self.differentials) != len(ranks) - 1:
            raise ComplexValidityError(
                f"{len(ranks)} terms need {len(ranks) - 1} differentials, "
                f"got {len(self.differentials)}"
            )
        for p, d in enumerate(self.differentials):
            if d.rows != ranks[p] or d.cols != ranks[p + 1]:
                raise ComplexValidityError(
                    f"differential {p} has shape {d.rows}x{d.cols}, "
                    f"expected {ranks[p]}x{ranks[p + 1]}"
                )
        for p in range(len(self.differentials) - 1):
            if not _composes_to_zero(self.differentials[p], self.differentials[p + 1]):
                raise ComplexValidityError(
                    f"differentials {p} and {p + 1} do not compose to zero"
                )

    @property
    def top_degree(self) -> int:
        return self.bottom_degree + len(self.ranks) - 1


def _composes_to_zero(a: SparseMatrix, b: SparseMatrix) -> bool:
    """Whether a * b = 0, by an exact sparse product one column at a time.

    Column j of a * b is summed into a dense accumulator over the rows that
    the columns of a named by column j of b touch; when all of them read
    zero, the accumulator is all zero again for the next column.
    """
    a_cols = a.columns
    acc = [0] * a.rows
    for col in b.columns:
        for k, y in col.items():
            for i, x in a_cols[k].items():
                acc[i] += x * y
        for k in col:
            for i in a_cols[k]:
                if acc[i]:
                    return False
    return True


def _tensor_product(
    c_ranks: Sequence[int], c_diffs: Sequence[SparseMatrix],
    d_ranks: Sequence[int], d_diffs: Sequence[SparseMatrix],
) -> tuple[tuple[int, ...], tuple[SparseMatrix, ...]]:
    """The tensor product of two complexes given by raw ranks and
    differentials, both starting at index 0.

    Term p is the direct sum of C_i (x) D_j over i + j = p, its blocks
    ordered by i descending and each block indexed with C's index major.
    The differential is d(x (x) y) = dx (x) y + (-1)^i x (x) dy for x in
    C_i. Each column is written from the nonzeros of one column of d_C and
    one of d_D, rows ascending when theirs are: block (i, j - 1), which
    holds x (x) dy, comes before block (i - 1, j), which holds dx (x) y.
    """
    terms = range(len(c_ranks) + len(d_ranks) - 1)
    offsets: list[dict[int, int]] = [{} for _ in terms]  # [p][i]: block (i, p - i)
    ranks = [0] * len(terms)
    for p in terms:
        for i in range(min(p, len(c_ranks) - 1), max(p - len(d_ranks) + 1, 0) - 1, -1):
            offsets[p][i] = ranks[p]
            ranks[p] += c_ranks[i] * d_ranks[p - i]

    diffs = []
    for p in terms[1:]:
        columns: list[dict[int, int]] = []
        below = offsets[p - 1]
        for i in offsets[p]:  # blocks in column order
            j = p - i
            width = d_ranks[j]
            dx = c_diffs[i - 1].columns if i else ({},) * c_ranks[i]
            dy: Sequence[dict[int, int]] = ({},) * width
            height = 0
            if j:
                dy, height = d_diffs[j - 1].columns, d_ranks[j - 1]
                if i % 2:
                    dy = [{a: -v for a, v in col.items()} for col in dy]
            for x in range(c_ranks[i]):
                x_dy = below[i] + x * height if j else 0
                dx_y = [(below[i - 1] + a * width, v) for a, v in dx[x].items()]
                for y in range(width):
                    col = {x_dy + a: v for a, v in dy[y].items()}
                    col.update([(r + y, v) for r, v in dx_y])
                    columns.append(col)
        diffs.append(SparseMatrix._unchecked(ranks[p - 1], ranks[p], tuple(columns)))
    return tuple(ranks), tuple(diffs)


def _reduce(
    ranks: Sequence[int], differentials: Sequence[SparseMatrix]
) -> tuple[tuple[int, ...], tuple[SparseMatrix, ...], tuple[tuple[int, ...], ...]]:
    """Cancel pivots that divide their row and their column; the homology
    over Z is unchanged apart from the torsion the pivots record.

    differentials[p] maps the term of index p + 1 to the term of index p.
    Each differential's columns are copied once into working columns
    {col: {row: value}}, with a row -> columns index. Going up the degrees,
    d_p is cancelled pivot by pivot. Its rows are kept in buckets by their
    number of nonzeros, and each pivot x = d[a][b] comes from the first row
    a, read from the bucket of length 1 upwards, that offers one: the unit
    of a whose column has the fewest nonzeros, stopping at a column with
    one, or, when a has no unit, its first entry x of least |x|, accepted
    when x divides every entry of row a and of column b. A cancellation
    changes only the rows of column b, so only they move between buckets.
    A unit divides everything, so it is the easiest divisor pivot. The bases
    e'_a = d_p(f_b) / x and f'_j = f_j - (d[a][j] / x) f_b are integral,
    and in them d_p is (x) + d' with the Schur complement
    d' = d - d[., b] * (d[a, .] / x). Row b of the differential above and
    column a of the one below become zero, so they are dropped with row a
    and column b, and Z --x--> Z leaves Z/|x| in the homology at index p.
    Cancelling in d_p only ever removes columns from the differentials
    below it, so no unit is left when the pass ends. A divisor pivot can be
    left, though: one that a removed column frees in d_(p-1), or one in a
    row whose first entry of least |x| fails the column test. Those go to
    the Smith diagonal, which is exact on whatever remains. Once the pass
    over d_p is over, its row index is no longer kept up to date: only its
    keys, the surviving rows, are read again.

    Returns the surviving ranks, the surviving differentials as sparse
    columns with their basis order kept, and for each differential the
    |x| > 1 it cancelled. _reduced_homologies makes the survivors dense for
    the Smith diagonal; _equivalent_reduction puts the cancelled divisor
    blocks back beside them for derive's tensor folds.
    """
    cols: list[dict[int, dict[int, int]]] = []
    rows: list[dict[int, set[int]]] = []
    for d in differentials:
        dc = {j: dict(col) for j, col in enumerate(d.columns)}
        dr: dict[int, set[int]] = {i: set() for i in range(d.rows)}
        for j, col in dc.items():
            for i in col:
                dr[i].add(j)
        cols.append(dc)
        rows.append(dr)

    factors: list[tuple[int, ...]] = []
    for p in range(len(differentials)):
        dc, dr = cols[p], rows[p]
        short: list[set[int]] = [set() for _ in range(len(dc) + 1)]  # by nonzeros
        for a, support in dr.items():
            short[len(support)].add(a)
        cancelled: list[int] = []
        while True:
            best = None
            for bucket in islice(short, 1, None):
                for a in bucket:
                    support = dr[a]
                    unit, m = None, 0
                    for b in support:
                        x = dc[b][a]
                        if x == 1 or x == -1:
                            n = len(dc[b])
                            if unit is None or n < unit_len:
                                unit, unit_len = b, n
                                if n == 1:
                                    break
                        elif unit is None and (not m or -m < x < m):
                            m, pick = abs(x), b
                    if unit is not None:
                        best = (a, unit, dc[unit][a])
                    elif m and all(dc[j][a] % m == 0 for j in support) and all(
                        y % m == 0 for y in dc[pick].values()
                    ):
                        best = (a, pick, dc[pick][a])
                    if best:
                        break
                if best:
                    break
            if best is None:
                break
            a, b, x = best
            if x != 1 and x != -1:
                cancelled.append(abs(x))
            col_b = dc.pop(b)
            del col_b[a]
            for i in col_b:  # the only rows whose length can change
                short[len(dr[i])].discard(i)
                dr[i].discard(b)
            row_a = dr.pop(a)
            short[len(row_a)].discard(a)
            row_a.discard(b)
            for j in row_a:
                col_j = dc[j]
                f = col_j.pop(a) // x
                for i, y in col_b.items():
                    v = col_j.get(i, 0) - y * f
                    if v:
                        if i not in col_j:
                            dr[i].add(j)
                        col_j[i] = v
                    elif i in col_j:
                        del col_j[i]
                        dr[i].discard(j)
            for i in col_b:
                short[len(dr[i])].add(i)
            if p + 1 < len(differentials):  # row b of the differential above
                above_c, above_r = cols[p + 1], rows[p + 1]
                for j in above_r.pop(b):
                    del above_c[j][b]
            if p:  # column a of the differential below, whose pass is over
                del cols[p - 1][a]
        factors.append(tuple(cancelled))

    if not differentials:
        return tuple(ranks), (), ()
    new_ranks = [len(rows[0])] + [len(dc) for dc in cols]
    out = []
    for dc, dr in zip(cols, rows):
        row_pos = {a: k for k, a in enumerate(dr)}
        out.append(SparseMatrix._unchecked(len(row_pos), len(dc), tuple(
            {row_pos[i]: v for i, v in col.items()} for col in dc.values()
        )))
    return tuple(new_ranks), tuple(out), tuple(factors)


def _equivalent_reduction(
    ranks: Sequence[int], differentials: Sequence[SparseMatrix]
) -> tuple[tuple[int, ...], tuple[SparseMatrix, ...]]:
    """A complex chain-homotopy equivalent to the given one, from one
    reduction.

    The reduction's changes of basis split the complex as its survivors,
    plus one block Z --x--> Z per divisor pivot x that it cancelled, plus a
    contractible pair Z --1--> Z per unit. So the survivors with the blocks
    put back are equivalent to it, and so is their tensor product with any
    free complex to its product. A block of d_p appends its target to term p
    after the survivors and its source to term p + 1 after the targets there.
    """
    ranks, survivors, factors = _reduce(ranks, differentials)
    targets = [len(xs) for xs in factors] + [0]
    sources = [0] + targets
    ranks = tuple(r + t + s for r, t, s in zip(ranks, targets, sources))
    diffs = []
    for p, d in enumerate(survivors):
        blocks = tuple({d.rows + k: x} for k, x in enumerate(factors[p]))
        columns = d.columns + ({},) * targets[p + 1] + blocks
        diffs.append(SparseMatrix._unchecked(ranks[p], ranks[p + 1], columns))
    return ranks, tuple(diffs)


def _reduced_homologies(
    ranks: Sequence[int], differentials: Sequence[SparseMatrix]
) -> tuple[FgAbGroup, ...]:
    """Homology at every term: one reduction, one Smith diagonal per
    surviving differential with a nonzero entry, and the cancelled pivots'
    torsion merged with the diagonal's by the gcd/lcm step of linalg. A
    survivor with no nonzero entry, empty shapes included, adds image rank
    0 and no torsion."""
    ranks, differentials, factors = _reduce(ranks, differentials)
    diagonals = [
        () if d.is_zero() else smith_diagonal(IntMatrix(d.rows, d.cols, d.entries))
        for d in differentials
    ]
    image = [sum(1 for x in diag if x) for diag in diagonals] + [0]
    groups = []
    for p, r in enumerate(ranks):
        torsion: list[int] = []
        if p < len(diagonals):
            torsion = _divisibility_chain([*factors[p], *(x for x in diagonals[p] if x > 1)])
        groups.append(FgAbGroup(r - image[p] - image[p - 1], tuple(x for x in torsion if x > 1)))
    return tuple(groups)


def homology_at(d_in: IntMatrix | SparseMatrix, d_out: IntMatrix | SparseMatrix) -> FgAbGroup:
    """ker(d_out) / im(d_in) for one composable pair of differentials.

    The pair is checked as a ChainComplex, so shapes that do not chain and
    a nonzero composite raise ComplexValidityError.
    """
    return homology(ChainComplex(0, (d_out.rows, d_in.rows, d_in.cols), (d_out, d_in)), 1)


def homology(c: ChainComplex, degree: int) -> FgAbGroup:
    """Homology of the complex at one degree inside its support range.

    Only the terms next to the degree are reduced; d(d(x)) = 0 was checked
    when the complex was built.
    """
    if degree < c.bottom_degree or degree > c.top_degree:
        raise InputError(
            f"degree {degree} outside complex range "
            f"[{c.bottom_degree}, {c.top_degree}]"
        )
    p = degree - c.bottom_degree
    lo = max(p - 1, 0)
    return _reduced_homologies(c.ranks[lo : p + 2], c.differentials[lo : p + 1])[p - lo]


def homologies(c: ChainComplex) -> tuple[FgAbGroup, ...]:
    """Homology at every degree, bottom to top, from one reduction."""
    return _reduced_homologies(c.ranks, c.differentials)

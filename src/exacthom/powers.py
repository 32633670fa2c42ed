"""Tensor, symmetric, exterior and divided power functors on free Z-modules.

Basis conventions are frozen; every matrix produced here is meaningless
without them. For Z^r with basis e_0 .. e_{r-1}:

  * Tensor^n: words (i_1, ..., i_n) over 0..r-1, lexicographic;
  * Sym^n and Div^n: weakly increasing tuples, lexicographic;
  * Ext^n: strictly increasing tuples, lexicographic.

Worked order for r = 2, n = 2 (write x = e_0, y = e_1):

  Tensor^2: xx, xy, yx, yy
  Sym^2:    x*x, x*y, y*y
  Div^2:    g2(x), g1(x)g1(y), g2(y)      (g_a = the a-th divided power)
  Ext^2:    x^y

Div^n(Z^r) is the graded dual of Sym^n(Z^r), its divided-power basis dual
to the monomial basis, so Div^n(m) = Sym^n(m^T)^T.

Sym^n(m) and Ext^n(m) are products of m's columns, built level by level
from one multiplication table per (kind, k, r): row t of _mult_table gives
e_i * t in kind^(k+1)(Z^r) for every generator i, with Ext's sign for
left multiplication. The Koszul builders read their products from the
same table. All caches (bases, index maps, multiplication tables) are
write-once and safe for concurrent readers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from typing import Optional, Sequence

from .errors import InputError
from .linalg import IntMatrix, _kron

__all__ = [
    "PowerKind",
    "FunctorKind",
    "basis",
    "basis_index",
    "induced_map",
    "div_contract",
    "norm_diagonal",
]


class PowerKind(Enum):
    TENSOR = "tensor"
    SYM = "sym"
    EXT = "ext"
    DIV = "div"


@dataclass(frozen=True)
class FunctorKind:
    """One of the four power functors together with its degree n >= 1."""

    kind: PowerKind
    degree: int

    def __post_init__(self) -> None:
        if not isinstance(self.kind, PowerKind):
            raise InputError(f"unknown functor kind {self.kind!r}")
        if self.degree < 1:
            raise InputError("functor degree must be at least 1")

    @classmethod
    def parse(cls, name: str, degree: int) -> "FunctorKind":
        try:
            kind = PowerKind(name.lower())
        except ValueError:
            raise InputError(f"unknown functor kind {name!r}") from None
        return cls(kind, degree)

    def __str__(self) -> str:
        return f"{self.kind.value}^{self.degree}"


@lru_cache(maxsize=None)
def basis(kind: PowerKind, n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The ordered basis index tuples of kind^n applied to Z^r."""
    if n < 0 or r < 0:
        raise InputError("degree and rank must be nonnegative")
    if kind is PowerKind.TENSOR:
        return tuple(itertools.product(range(r), repeat=n))
    if kind is PowerKind.EXT:
        return tuple(itertools.combinations(range(r), n))
    return tuple(itertools.combinations_with_replacement(range(r), n))


@lru_cache(maxsize=None)
def _index_map(kind: PowerKind, n: int, r: int) -> dict[tuple[int, ...], int]:
    return {t: i for i, t in enumerate(basis(kind, n, r))}


def basis_index(kind: PowerKind, n: int, r: int, element: Sequence[int]) -> int:
    """Position of a basis index tuple in the frozen enumeration."""
    try:
        return _index_map(kind, n, r)[tuple(element)]
    except KeyError:
        raise InputError(f"{tuple(element)} is not a {kind.value}^{n} basis index over rank {r}") from None


@lru_cache(maxsize=None)
def _mult_table(kind: PowerKind, k: int, r: int) -> tuple[tuple[Optional[tuple[int, int]], ...], ...]:
    """Left multiplication by the generators, kind^k(Z^r) -> kind^(k+1)(Z^r),
    for kind Sym or Ext.

    Row t, in basis order, holds for each generator i the pair (index, sign)
    with e_i * t = sign * (the basis element of kind^(k+1) at index), or
    None when e_i * t = 0 (Ext with i in t). The Ext sign is
    (-1)^#{j in t : j < i}, the sign of moving e_i past the wedge indices
    below it; the Sym sign is 1. Within a row the indices grow with i.
    """
    ext = kind is PowerKind.EXT
    target = _index_map(kind, k + 1, r)
    table = []
    for t in basis(kind, k, r):
        row: list[Optional[tuple[int, int]]] = []
        for i in range(r):
            if ext and i in t:
                row.append(None)
            else:
                sign = -1 if ext and sum(j < i for j in t) % 2 else 1
                row.append((target[tuple(sorted(t + (i,)))], sign))
        table.append(tuple(row))
    return tuple(table)


def _times(row: Sequence[Optional[tuple[int, int]]], terms: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The nonzero terms (index, coefficient) of v * t, rows ascending, from
    row t of a _mult_table and the nonzero terms (i, c) of v, i ascending."""
    return [(entry[0], entry[1] * c) for i, c in terms if (entry := row[i])]


def div_contract(mono: Sequence[int], j: int) -> Optional[tuple[int, ...]]:
    """Remove one occurrence of generator j from a divided power monomial.

    The contraction coefficient is exactly 1; None when j does not occur.
    """
    mono = tuple(mono)
    if j not in mono:
        return None
    pos = mono.index(j)
    return mono[:pos] + mono[pos + 1 :]


def norm_diagonal(n: int, r: int) -> IntMatrix:
    """Diagonal matrix of multinomial coefficients n!/(a_0! a_1! ...).

    Indexed by the Sym^n/Div^n basis; it intertwines the two functors, with
    Sym^n(m) * N = N * Div^n(m) for every integer matrix m.
    """
    n_fact = math.factorial(n)
    values = []
    for mono in basis(PowerKind.SYM, n, r):
        denom = 1
        for i in set(mono):
            denom *= math.factorial(mono.count(i))
        values.append(n_fact // denom)
    return IntMatrix.diagonal(values)


def _tensor_induced(n: int, m: IntMatrix) -> IntMatrix:
    # Kronecker power; the blocked row/column order matches the word basis.
    return reduce(_kron, itertools.repeat(m, n), IntMatrix.identity(1))


def _product_induced(kind: PowerKind, n: int, m: IntMatrix) -> IntMatrix:
    """Sym^n(m) or Ext^n(m): column (j_1, ..., j_n) is the product
    m_(j_1) * ... * m_(j_n) of m's columns in the symmetric or exterior
    algebra of Z^rows.

    The products are built level by level as m_(j_1) * (m_(j_2) * ...), so
    each product of k - 1 columns is computed once and shared by every
    product of k columns it ends, and each term is placed by _mult_table.
    """
    if n == 1:
        return m
    # the nonzero terms (i, m_ij) of each column j: the products of level 1
    heads = [[(i, row[j]) for i, row in enumerate(m.entries) if row[j]] for j in range(m.cols)]
    products = heads
    for k in range(1, n):
        table = _mult_table(kind, k, m.rows)
        tails = _index_map(kind, k, m.cols)
        size = len(basis(kind, k + 1, m.rows))
        level = []
        for t in basis(kind, k + 1, m.cols):
            head = heads[t[0]]
            acc = [0] * size
            for s, c in products[tails[t[1:]]]:
                row = table[s]
                for i, a in head:
                    entry = row[i]
                    if entry is not None:
                        index, sign = entry
                        acc[index] += sign * a * c
            level.append(acc)
        if k + 1 < n:
            products = [[(index, c) for index, c in enumerate(acc) if c] for acc in level]
    # level holds the dense columns of the top products
    rows = tuple(zip(*level)) if level else ((),) * size
    return IntMatrix(size, len(level), rows)


def _div_induced(n: int, m: IntMatrix) -> IntMatrix:
    return _product_induced(PowerKind.SYM, n, m.transpose()).transpose()


def induced_map(f: FunctorKind, m: IntMatrix) -> IntMatrix:
    """The matrix of f applied to the linear map m, in the frozen bases.

    Functorial: induced_map(f, a @ b) == induced_map(f, a) @ induced_map(f, b),
    and the identity goes to the identity.
    """
    n = f.degree
    if f.kind is PowerKind.TENSOR:
        return _tensor_induced(n, m)
    if f.kind is PowerKind.DIV:
        return _div_induced(n, m)
    return _product_induced(f.kind, n, m)

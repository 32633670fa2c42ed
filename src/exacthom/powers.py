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
to the monomial basis, so Div^n(m) = Sym^n(m^T)^T. All caches are
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
from .linalg import IntMatrix, _kron, det

__all__ = [
    "PowerKind",
    "FunctorKind",
    "basis",
    "basis_index",
    "induced_map",
    "sym_mult",
    "ext_mult",
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


def sym_mult(v: Sequence[int], mono: Sequence[int]) -> list[int]:
    """Multiply a monomial of Sym^k(Z^r) by a vector of Z^r, r = len(v).

    Returns the coordinate column of the product in Sym^(k+1)(Z^r).
    """
    r = len(v)
    mono = tuple(mono)
    k = len(mono)
    target = _index_map(PowerKind.SYM, k + 1, r)
    out = [0] * len(target)
    for i, c in enumerate(v):
        if c:
            out[target[tuple(sorted(mono + (i,)))]] += c
    return out


def ext_mult(v: Sequence[int], wedge: Sequence[int]) -> list[int]:
    """Left-multiply a wedge of Ext^k(Z^r) by a vector: v ^ wedge.

    Returns the coordinate column in Ext^(k+1)(Z^r); the sign of each term
    is (-1)^(number of wedge indices below the inserted one).
    """
    r = len(v)
    wedge = tuple(wedge)
    k = len(wedge)
    target = _index_map(PowerKind.EXT, k + 1, r)
    out = [0] * len(target)
    for i, c in enumerate(v):
        if c and i not in wedge:
            below = sum(1 for j in wedge if j < i)
            merged = tuple(sorted(wedge + (i,)))
            if below % 2:
                out[target[merged]] -= c
            else:
                out[target[merged]] += c
    return out


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


def _sym_induced(n: int, m: IntMatrix) -> IntMatrix:
    r_src, r_dst = m.cols, m.rows
    src = basis(PowerKind.SYM, n, r_src)
    dst_index = _index_map(PowerKind.SYM, n, r_dst)
    columns = []
    for mono in src:
        acc: dict[tuple[int, ...], int] = {(): 1}
        for j in mono:
            new: dict[tuple[int, ...], int] = {}
            for partial, c in acc.items():
                for i in range(r_dst):
                    coeff = m.entries[i][j]
                    if coeff:
                        key = tuple(sorted(partial + (i,)))
                        new[key] = new.get(key, 0) + c * coeff
            acc = new
        col = [0] * len(dst_index)
        for mono_dst, c in acc.items():
            col[dst_index[mono_dst]] = c
        columns.append(col)
    return IntMatrix.from_rows(
        [[columns[j][i] for j in range(len(src))] for i in range(len(dst_index))],
        cols=len(src),
    )


def _ext_induced(n: int, m: IntMatrix) -> IntMatrix:
    src = basis(PowerKind.EXT, n, m.cols)
    dst = basis(PowerKind.EXT, n, m.rows)
    grid = [
        [det(m.submatrix(rows_idx, cols_idx)) for cols_idx in src]
        for rows_idx in dst
    ]
    return IntMatrix.from_rows(grid, cols=len(src))


def _div_induced(n: int, m: IntMatrix) -> IntMatrix:
    return _sym_induced(n, m.transpose()).transpose()


def induced_map(f: FunctorKind, m: IntMatrix) -> IntMatrix:
    """The matrix of f applied to the linear map m, in the frozen bases.

    Functorial: induced_map(f, a @ b) == induced_map(f, a) @ induced_map(f, b),
    and the identity goes to the identity.
    """
    n = f.degree
    if f.kind is PowerKind.TENSOR:
        return _tensor_induced(n, m)
    if f.kind is PowerKind.SYM:
        return _sym_induced(n, m)
    if f.kind is PowerKind.EXT:
        return _ext_induced(n, m)
    return _div_induced(n, m)

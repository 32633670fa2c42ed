"""Koszul-type complexes computing left derived power functors.

A finitely generated abelian group A is presented by an injective map
iota: H -> F of free Z-modules with cokernel A. For each power functor and
degree n this module builds a complex of free modules concentrated in
degrees 0..n whose homology gives the derived functors L_i of the functor
evaluated on A, independent of the chosen presentation:

  * sym:    0 -> Ext^n(H) -> Ext^(n-1)(H) (x) F -> ... -> Sym^n(F) -> 0
  * ext:    0 -> Div^n(H) -> Div^(n-1)(H) (x) F -> ... -> Ext^n(F) -> 0
  * tensor: the n-fold tensor power of the two-term complex H -> F

Basis conventions inside each term: the H-part index is the major index and
the F-part index the minor one, each factor ordered as in powers.py; the
tensor power term in homological degree p is the direct sum over the
lexicographically ordered p-element subsets S of the tensor positions, each
block holding the words with H letters at the positions in S.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

from .abelian import ChainComplex, FgAbGroup, from_cyclic_orders, homologies
from .errors import InputError, InvariantViolation, UnsupportedFunctorError
from .linalg import IntMatrix
from .powers import FunctorKind, PowerKind, basis, div_contract, ext_mult, sym_mult

__all__ = [
    "PresentationPair",
    "DerivedResult",
    "presentation_from_group",
    "random_padded_presentation",
    "kos",
    "kos_prime",
    "tensor_complex",
    "derived",
    "derived_from_presentation",
    "power_of_group",
]


@dataclass(frozen=True)
class PresentationPair:
    """An injective map of free modules iota: Z^h_rank -> Z^f_rank.

    The inclusion matrix is f_rank x h_rank and must have full column rank,
    so the cokernel is the group being presented.
    """

    h_rank: int
    f_rank: int
    inclusion: IntMatrix

    def __post_init__(self) -> None:
        if self.inclusion.rows != self.f_rank or self.inclusion.cols != self.h_rank:
            raise InputError(
                f"inclusion must be {self.f_rank}x{self.h_rank}, "
                f"got {self.inclusion.rows}x{self.inclusion.cols}"
            )
        # one reduction of F <- H gives the kernel (H_1) and the cokernel (H_0)
        two_term = ChainComplex(0, (self.f_rank, self.h_rank), (self.inclusion,))
        cokernel, kernel = homologies(two_term)
        if not kernel.is_trivial():
            raise InputError("inclusion must be injective (full column rank)")
        object.__setattr__(self, "_group", cokernel)

    def group(self) -> FgAbGroup:
        return self._group  # type: ignore[attr-defined]


def presentation_from_group(a: FgAbGroup, padding: int = 0) -> PresentationPair:
    """The minimal diagonal presentation of a, optionally padded.

    With zero padding, F = Z^(t + free_rank) with the t torsion generators
    first and the inclusion is diag(invariant factors) stacked over zeros.
    Each unit of padding adds one redundant generator g to F together with
    the relation g - (e_0 + e_1) (or g - e_0 when only one earlier generator
    exists, or g alone when none does); the cokernel is unchanged.
    """
    if padding < 0:
        raise InputError("padding must be nonnegative")
    t = len(a.invariant_factors)
    f0 = t + a.free_rank
    f, h = f0 + padding, t + padding
    grid = [[0] * h for _ in range(f)]
    for i, d in enumerate(a.invariant_factors):
        grid[i][i] = d
    for k in range(padding):
        new_gen = f0 + k
        col = t + k
        grid[new_gen][col] = 1
        for old in range(min(2, new_gen)):
            grid[old][col] = -1
    return PresentationPair(h, f, IntMatrix.from_rows(grid, cols=h))


def random_padded_presentation(
    a: FgAbGroup, padding: int, rng: random.Random
) -> PresentationPair:
    """Pad the minimal presentation with random redundant generators.

    Each new generator g gets the relation g - (random combination of all
    earlier generators, coefficients in [-2, 2]); by Tietze elimination the
    cokernel is the group a for every choice.
    """
    if padding < 0:
        raise InputError("padding must be nonnegative")
    t = len(a.invariant_factors)
    f0 = t + a.free_rank
    f, h = f0 + padding, t + padding
    grid = [[0] * h for _ in range(f)]
    for i, d in enumerate(a.invariant_factors):
        grid[i][i] = d
    for k in range(padding):
        new_gen = f0 + k
        col = t + k
        grid[new_gen][col] = 1
        for old in range(new_gen):
            grid[old][col] = -rng.randint(-2, 2)
    return PresentationPair(h, f, IntMatrix.from_rows(grid, cols=h))


def _iota_columns(p: PresentationPair) -> list[list[int]]:
    return [[p.inclusion.entries[r][c] for r in range(p.f_rank)] for c in range(p.h_rank)]


def kos(p: PresentationPair, n: int) -> ChainComplex:
    """The complex with Ext^p(H) (x) Sym^(n-p)(F) in degree p.

    Its homology at degree i is L_i Sym^n of the presented group. The
    differential removes the wedge slots one at a time with alternating
    signs and multiplies the image vector into the symmetric part.
    """
    if n < 1:
        raise InputError("functor degree must be at least 1")
    h, f = p.h_rank, p.f_rank
    cols_of_iota = _iota_columns(p)
    wedges = [basis(PowerKind.EXT, k, h) for k in range(n + 1)]
    monos = [basis(PowerKind.SYM, k, f) for k in range(n + 1)]
    ranks = [len(wedges[k]) * len(monos[n - k]) for k in range(n + 1)]

    diffs: list[IntMatrix] = []
    for deg in range(1, n + 1):
        rows, cols = ranks[deg - 1], ranks[deg]
        grid = [[0] * cols for _ in range(rows)]
        wedge_index = {t: i for i, t in enumerate(wedges[deg - 1])}
        mono_count = len(monos[n - deg + 1])
        mult_cache: dict[tuple[int, tuple[int, ...]], list[int]] = {}
        col = 0
        for wedge in wedges[deg]:
            for mono in monos[n - deg]:
                for pos in range(deg):
                    gen = wedge[pos]
                    key = (gen, mono)
                    vcol = mult_cache.get(key)
                    if vcol is None:
                        vcol = sym_mult(cols_of_iota[gen], mono)
                        mult_cache[key] = vcol
                    sign = -1 if pos % 2 else 1
                    base = wedge_index[wedge[:pos] + wedge[pos + 1 :]] * mono_count
                    for k, c in enumerate(vcol):
                        if c:
                            grid[base + k][col] += sign * c
                col += 1
        diffs.append(IntMatrix.from_rows(grid, cols=cols))
    return ChainComplex(0, tuple(ranks), tuple(diffs))


def kos_prime(p: PresentationPair, n: int) -> ChainComplex:
    """The complex with Div^p(H) (x) Ext^(n-p)(F) in degree p.

    Its homology at degree i is L_i Ext^n of the presented group. The
    differential contracts one divided power slot (coefficient exactly 1)
    and wedges the image vector onto the exterior part; wedge antisymmetry
    makes the square zero.
    """
    if n < 1:
        raise InputError("functor degree must be at least 1")
    h, f = p.h_rank, p.f_rank
    cols_of_iota = _iota_columns(p)
    gammas = [basis(PowerKind.DIV, k, h) for k in range(n + 1)]
    wedges = [basis(PowerKind.EXT, k, f) for k in range(n + 1)]
    ranks = [len(gammas[k]) * len(wedges[n - k]) for k in range(n + 1)]

    diffs: list[IntMatrix] = []
    for deg in range(1, n + 1):
        rows, cols = ranks[deg - 1], ranks[deg]
        grid = [[0] * cols for _ in range(rows)]
        gamma_index = {t: i for i, t in enumerate(gammas[deg - 1])}
        wedge_count = len(wedges[n - deg + 1])
        mult_cache: dict[tuple[int, tuple[int, ...]], list[int]] = {}
        col = 0
        for gamma in gammas[deg]:
            for wedge in wedges[n - deg]:
                for gen in dict.fromkeys(gamma):  # distinct slots, in order
                    key = (gen, wedge)
                    vcol = mult_cache.get(key)
                    if vcol is None:
                        vcol = ext_mult(cols_of_iota[gen], wedge)
                        mult_cache[key] = vcol
                    base = gamma_index[div_contract(gamma, gen)] * wedge_count
                    for k, c in enumerate(vcol):
                        if c:
                            grid[base + k][col] += c
                col += 1
        diffs.append(IntMatrix.from_rows(grid, cols=cols))
    return ChainComplex(0, tuple(ranks), tuple(diffs))


def tensor_complex(p: PresentationPair, n: int) -> ChainComplex:
    """The n-fold tensor power of the two-term complex H -> F.

    Degree p collects the words with H letters at a p-element subset S of
    the positions; the differential pushes one H letter through iota with
    the Koszul sign (-1)^(number of S positions before it). Its homology at
    degree i is L_i Tensor^n of the presented group.
    """
    if n < 1:
        raise InputError("functor degree must be at least 1")
    h, f = p.h_rank, p.f_rank
    iota_sparse = [
        [(t, p.inclusion.entries[t][c]) for t in range(f) if p.inclusion.entries[t][c]]
        for c in range(p.h_rank)
    ]

    # layouts[k]: subset -> (block offset, per-position strides); ranks[k] total.
    layouts: list[dict[tuple[int, ...], tuple[int, list[int]]]] = []
    ranks: list[int] = []
    for k in range(n + 1):
        table: dict[tuple[int, ...], tuple[int, list[int]]] = {}
        offset = 0
        for subset in itertools.combinations(range(n), k):
            in_s = set(subset)
            sizes = [h if q in in_s else f for q in range(n)]
            strides = [0] * n
            acc = 1
            for q in range(n - 1, -1, -1):
                strides[q] = acc
                acc *= sizes[q]
            table[subset] = (offset, strides)
            offset += acc
        layouts.append(table)
        ranks.append(offset)

    diffs: list[IntMatrix] = []
    for deg in range(1, n + 1):
        rows, cols = ranks[deg - 1], ranks[deg]
        grid = [[0] * cols for _ in range(rows)]
        for subset, (offset, _strides) in layouts[deg].items():
            in_s = set(subset)
            position_ranges = [range(h) if q in in_s else range(f) for q in range(n)]
            for word_idx, word in enumerate(itertools.product(*position_ranges)):
                col = offset + word_idx
                for k, pos in enumerate(subset):
                    sign = -1 if k % 2 else 1
                    target_subset = subset[:k] + subset[k + 1 :]
                    t_offset, t_strides = layouts[deg - 1][target_subset]
                    base = t_offset
                    for q, letter in enumerate(word):
                        if q != pos:
                            base += letter * t_strides[q]
                    stride = t_strides[pos]
                    for t, c in iota_sparse[word[pos]]:
                        grid[base + t * stride][col] += sign * c
        diffs.append(IntMatrix.from_rows(grid, cols=cols))
    return ChainComplex(0, tuple(ranks), tuple(diffs))


def power_of_group(f: FunctorKind, a: FgAbGroup) -> FgAbGroup:
    """The functor value on a group, by the classical direct sum expansions.

    Writing a as a sum of cyclic pieces with orders c_i (0 for Z), the
    tensor power sums Z/gcd over all degree-n words, the symmetric power
    over all multisets, and the exterior power over all n-element subsets;
    divided powers of torsion groups are outside this rule and rejected.
    """
    if f.kind is PowerKind.DIV:
        raise UnsupportedFunctorError("no direct formula for divided powers of torsion groups")
    orders = [0] * a.free_rank + list(a.invariant_factors)
    k = len(orders)
    n = f.degree
    if f.kind is PowerKind.TENSOR:
        picks = itertools.product(range(k), repeat=n)
        summands = [reduce(math.gcd, (orders[i] for i in pick), 0) for pick in picks]
    elif f.kind is PowerKind.SYM:
        picks = itertools.combinations_with_replacement(range(k), n)
        summands = [reduce(math.gcd, (orders[i] for i in set(pick)), 0) for pick in picks]
    else:
        picks = itertools.combinations(range(k), n)
        summands = [reduce(math.gcd, (orders[i] for i in pick), 0) for pick in picks]
    return from_cyclic_orders(summands)


@dataclass(frozen=True)
class DerivedResult:
    """Derived functor values L_0 .. L_n of one power functor on one group.

    Construction cross-checks L_0 against the direct value of the functor
    on the group (right exactness), which is computed by an independent
    route; a mismatch means a real invariant violation.
    """

    functor: FunctorKind
    group: FgAbGroup
    values: tuple[FgAbGroup, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.functor.degree + 1:
            raise InputError("need one value per degree 0..n")
        expected = power_of_group(self.functor, self.group)
        if self.values[0] != expected:
            raise InvariantViolation(
                f"L_0 {self.functor} of {self.group} is {self.values[0]}, "
                f"but the functor value is {expected}"
            )


_BUILDERS = {
    PowerKind.SYM: kos,
    PowerKind.EXT: kos_prime,
    PowerKind.TENSOR: tensor_complex,
}


def complex_for(f: FunctorKind, p: PresentationPair) -> ChainComplex:
    """The Koszul-type complex computing f's derived functors over p."""
    try:
        builder = _BUILDERS[f.kind]
    except KeyError:
        raise UnsupportedFunctorError(
            "derived functors of divided powers are not supported"
        ) from None
    return builder(p, f.degree)


def derived_from_presentation(f: FunctorKind, p: PresentationPair) -> DerivedResult:
    """Derived functor values computed from an explicit presentation."""
    c = complex_for(f, p)
    values = homologies(c)
    return DerivedResult(functor=f, group=p.group(), values=values)


def derived(f: FunctorKind, a: FgAbGroup, padding: int = 0) -> DerivedResult:
    """Derived functor values L_0 .. L_n of f on the group a.

    The answer does not depend on the padding; the parameter exists to make
    presentation independence observable.
    """
    return derived_from_presentation(f, presentation_from_group(a, padding))

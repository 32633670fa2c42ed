"""Koszul-type complexes computing left derived power functors.

A finitely generated abelian group A is presented by an injective map
iota: H -> F of free Z-modules with cokernel A, held as SparseMatrix
columns; a padded presentation writes only each column's nonzeros, at most
3 per column of the standard padding. For each power functor and
degree n this module builds a complex of free modules concentrated in
degrees 0..n whose homology gives the derived functors L_i of the functor
evaluated on A, independent of the chosen presentation:

  * sym:    0 -> Ext^n(H) -> Ext^(n-1)(H) (x) F -> ... -> Sym^n(F) -> 0
  * ext:    0 -> Div^n(H) -> Div^(n-1)(H) (x) F -> ... -> Ext^n(F) -> 0
  * tensor: the n-fold tensor power of the two-term complex H -> F

Basis conventions inside each term: the H-part index is the major index and
the F-part index the minor one, each factor ordered as in powers.py. The
sym and ext complexes share one differential loop (_koszul). The tensor
power is the (n-1)-fold tensor product of H -> F with itself, with the
Koszul sign; its term in homological degree p is the direct sum over the
colexicographically ordered p-element subsets S of the tensor positions,
each block holding the words with H letters at the positions in S in
lexicographic order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .abelian import ChainComplex, FgAbGroup, _tensor_product, from_cyclic_orders, homologies
from .errors import InputError, InvariantViolation, ResourceBudgetError, UnsupportedFunctorError
from .linalg import SparseMatrix
from .powers import FunctorKind, PowerKind, _mult_table, _times, basis, div_contract

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
    so the cokernel is the group being presented. It may be given dense or
    sparse; the two-term complex that checks it converts a dense one once,
    and its SparseMatrix columns are what the builders read.
    """

    h_rank: int
    f_rank: int
    inclusion: SparseMatrix

    def __post_init__(self) -> None:
        if self.inclusion.rows != self.f_rank or self.inclusion.cols != self.h_rank:
            raise InputError(
                f"inclusion must be {self.f_rank}x{self.h_rank}, "
                f"got {self.inclusion.rows}x{self.inclusion.cols}"
            )
        # one reduction of F <- H gives the kernel (H_1) and the cokernel (H_0)
        two_term = ChainComplex(0, (self.f_rank, self.h_rank), (self.inclusion,))
        object.__setattr__(self, "inclusion", two_term.differentials[0])
        cokernel, kernel = homologies(two_term)
        if not kernel.is_trivial():
            raise InputError("inclusion must be injective (full column rank)")
        object.__setattr__(self, "_group", cokernel)

    def group(self) -> FgAbGroup:
        return self._group  # type: ignore[attr-defined]


def _padded_ranks(a: FgAbGroup, padding: int) -> tuple[int, int]:
    """(h_rank, f_rank) of the minimal presentation of a padded by padding
    redundant generators."""
    if padding < 0:
        raise InputError("padding must be nonnegative")
    t = len(a.invariant_factors)
    return t + padding, t + a.free_rank + padding


def _padded(a: FgAbGroup, padding: int, earlier: Callable[[int], dict[int, int]]) -> PresentationPair:
    """The minimal presentation of a plus padding redundant generators g, each
    with the relation g + sum of c * old over the nonzeros {old: c} that
    earlier(g) lists, rows ascending, among the generators before g."""
    h, f = _padded_ranks(a, padding)
    columns = [{i: d} for i, d in enumerate(a.invariant_factors)]
    for new_gen in range(f - padding, f):
        column = earlier(new_gen)
        column[new_gen] = 1
        columns.append(column)
    return PresentationPair(h, f, SparseMatrix._unchecked(f, h, tuple(columns)))


def presentation_from_group(a: FgAbGroup, padding: int = 0) -> PresentationPair:
    """The minimal diagonal presentation of a, optionally padded.

    With zero padding, F = Z^(t + free_rank) with the t torsion generators
    first and the inclusion is diag(invariant factors) stacked over zeros.
    Each unit of padding adds one redundant generator g to F together with
    the relation g - (e_0 + e_1) (or g - e_0 when only one earlier generator
    exists, or g alone when none does); the cokernel is unchanged.
    """
    return _padded(a, padding, lambda gen: dict.fromkeys(range(min(gen, 2)), -1))


def random_padded_presentation(
    a: FgAbGroup, padding: int, rng: random.Random
) -> PresentationPair:
    """Pad the minimal presentation with random redundant generators.

    Each new generator g gets the relation g - (random combination of all
    earlier generators, coefficients in [-2, 2]); by Tietze elimination the
    cokernel is the group a for every choice.
    """
    # one draw per earlier generator in order, zeros included, as the seeds expect
    return _padded(a, padding, lambda g: {old: c for old in range(g) if (c := -rng.randint(-2, 2))})


def _power_rank(kind: PowerKind, k: int, r: int) -> int:
    """Rank of kind^k(Z^r) for the exterior, symmetric and divided powers."""
    if kind is PowerKind.EXT:
        return math.comb(r, k)
    return math.comb(r + k - 1, k) if r else int(k == 0)


def _koszul(
    p: PresentationPair, n: int, left_kind: PowerKind, right_kind: PowerKind,
    contractions: Callable,
) -> ChainComplex:
    """The complex with left^k(H) (x) right^(n-k)(F) in degree k.

    The differential is d(a (x) b) = sum sign * a' (x) (iota(e_gen) * b)
    over the (gen, a', sign) that contractions(a) lists, with the product
    read from right_kind's multiplication table. Ranks come from the
    binomial formulas, and only the bases of terms with columns are listed:
    for one generator, most terms of a high power have rank 0.
    """
    if n < 1:
        raise InputError("functor degree must be at least 1")
    h, f = p.h_rank, p.f_rank
    # images[gen]: the nonzero terms (i, c) of iota(e_gen), i ascending
    images = [sorted(col.items()) for col in p.inclusion.columns]
    right_ranks = [_power_rank(right_kind, k, f) for k in range(n + 1)]
    ranks = [_power_rank(left_kind, k, h) * right_ranks[n - k] for k in range(n + 1)]

    diffs: list[SparseMatrix] = []
    for deg in range(1, n + 1):
        columns: list[dict[int, int]] = []
        if ranks[deg]:
            left_index = {t: i for i, t in enumerate(basis(left_kind, deg - 1, h))}
            below = right_ranks[n - deg + 1]
            # products[b][gen]: the nonzeros of iota(e_gen) * b, rows ascending
            products = [
                [_times(row, terms) for terms in images]
                for row in _mult_table(right_kind, n - deg, f)
            ]
            for a in basis(left_kind, deg, h):
                # distinct contractions of a leave distinct a', so every row
                # is written once; contractions list a' in descending basis
                # order, so reversed they write each column's rows ascending
                terms = [
                    (gen, left_index[rest] * below, sign)
                    for gen, rest, sign in reversed(contractions(a))
                ]
                for product in products:
                    columns.append({
                        base + k: sign * c for gen, base, sign in terms for k, c in product[gen]
                    })
        diffs.append(SparseMatrix._unchecked(ranks[deg - 1], ranks[deg], tuple(columns)))
    return ChainComplex(0, tuple(ranks), tuple(diffs))


def _ext_contractions(a: tuple[int, ...]) -> list[tuple[int, tuple[int, ...], int]]:
    # remove each wedge slot, with sign (-1)^slot
    return [(gen, a[:s] + a[s + 1 :], -1 if s % 2 else 1) for s, gen in enumerate(a)]


def _div_contractions(a: tuple[int, ...]) -> list[tuple[int, tuple[int, ...], int]]:
    # remove each distinct generator once; the coefficient is exactly 1
    return [(gen, div_contract(a, gen), 1) for gen in dict.fromkeys(a)]


def kos(p: PresentationPair, n: int) -> ChainComplex:
    """The complex with Ext^p(H) (x) Sym^(n-p)(F) in degree p.

    Its homology at degree i is L_i Sym^n of the presented group. The
    differential removes the wedge slots one at a time with alternating
    signs and multiplies the image vector into the symmetric part.
    """
    return _koszul(p, n, PowerKind.EXT, PowerKind.SYM, _ext_contractions)


def kos_prime(p: PresentationPair, n: int) -> ChainComplex:
    """The complex with Div^p(H) (x) Ext^(n-p)(F) in degree p.

    Its homology at degree i is L_i Ext^n of the presented group. The
    differential contracts one divided power slot (coefficient exactly 1)
    and wedges the image vector onto the exterior part; wedge antisymmetry
    makes the square zero.
    """
    return _koszul(p, n, PowerKind.DIV, PowerKind.EXT, _div_contractions)


def tensor_complex(p: PresentationPair, n: int) -> ChainComplex:
    """The n-fold tensor power of the two-term complex H -> F.

    Built as ((F <- H) (x) (F <- H)) (x) ... by abelian._tensor_product, so
    the differential pushes one H letter through iota with the Koszul sign
    (-1)^(number of H letters before it). Degree p is the direct sum over
    the p-element subsets S of the tensor positions, in colexicographic
    order, of the blocks of words with H letters at the positions in S,
    each block lexicographic. Its homology at degree i is L_i Tensor^n of
    the presented group.
    """
    if n < 1:
        raise InputError("functor degree must be at least 1")
    two_term = ((p.f_rank, p.h_rank), (p.inclusion,))
    ranks, diffs = two_term
    for _ in range(n - 1):
        ranks, diffs = _tensor_product(ranks, diffs, *two_term)
    return ChainComplex(0, ranks, diffs)


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
    picks = basis(f.kind, f.degree, len(orders))
    return from_cyclic_orders([math.gcd(*(orders[i] for i in pick)) for pick in picks])


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


def _builder(f: FunctorKind) -> Callable[[PresentationPair, int], ChainComplex]:
    try:
        return _BUILDERS[f.kind]
    except KeyError:
        raise UnsupportedFunctorError(
            "derived functors of divided powers are not supported"
        ) from None


def complex_for(f: FunctorKind, p: PresentationPair) -> ChainComplex:
    """The Koszul-type complex computing f's derived functors over p."""
    return _builder(f)(p, f.degree)


def _comb(a: int, b: int, cap: int) -> int:
    """C(a, b), or cap when it is at least cap; C(-1, 0) is 1."""
    if b == 0:
        return 1
    if b < 0 or b > a:
        return 0
    out = 1
    # C(a, i) grows with i up to a / 2, so the first value past cap is final
    for i in range(min(b, a - b)):
        out = out * (a - i) // (i + 1)
        if out >= cap:
            return cap
    return out


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


def _term_rank(kind: PowerKind, n: int, k: int, h: int, f: int, cap: int) -> int:
    """Rank of the degree-k term that the builder for kind^n makes over
    Z^h -> Z^f, or cap when it is at least cap."""
    if kind is PowerKind.SYM:  # Ext^k(H) (x) Sym^(n-k)(F)
        return _capped_product((_comb(h, k, cap), _comb(f + n - k - 1, n - k, cap)), cap)
    if kind is PowerKind.EXT:  # Div^k(H) (x) Ext^(n-k)(F)
        return _capped_product((_comb(h + k - 1, k, cap), _comb(f, n - k, cap)), cap)
    # tensor: C(n, k) placements of the H letters, h^k f^(n-k) words each
    return _capped_product(
        (_comb(n, k, cap), _capped_power(h, k, cap), _capped_power(f, n - k, cap)), cap
    )


# The most rows*cols of one differential, rank of one term and number of
# terms that derive builds. Differentials are stored sparse, so memory grows
# with the term ranks and the nonzeros; a term of rank 2^36 needs 4 TiB for
# its empty column dicts alone (64 bytes each), so only requests that no
# ordinary host could hold are refused.
DERIVE_BUDGET = 2**36


def check_budget(f: FunctorKind, a: FgAbGroup, padding: int, budget: int = DERIVE_BUDGET) -> None:
    """Raise ResourceBudgetError unless derived(f, a, padding) fits within
    the entry budget, before anything is built.

    The padded presentation Z^h -> Z^f is a two-term complex, and the
    complex for f over it has n + 1 terms whose ranks come from the
    builders' rank formulas: Ext^k(H) (x) Sym^(n-k)(F) for sym,
    Div^k(H) (x) Ext^(n-k)(F) for ext and C(n, k) h^k f^(n-k) for tensor.
    Every term rank, every differential's rows*cols and the term count
    n + 1 must be at most budget. Ranks are computed capped just above the
    budget and checked in degree order, so a huge request forms no huge
    number and is refused at its first term or differential past the budget.
    """
    _builder(f)
    h, g = _padded_ranks(a, padding)
    n = f.degree

    def fits(stage: str, ranks: Iterable[int]) -> None:
        prev = 0
        for k, r in enumerate(ranks):
            if r > budget:
                raise ResourceBudgetError(f"{stage}: term {k} has rank over the budget of {budget}")
            if prev * r > budget:
                raise ResourceBudgetError(
                    f"{stage}: d_{k} is {prev}x{r} = {prev * r} entries, budget is {budget}"
                )
            prev = r

    fits(f"presentation Z^{h} -> Z^{g}", (g, h))
    if n + 1 > budget:
        raise ResourceBudgetError(f"the {f} complex has {n + 1} terms, budget is {budget}")
    cap = budget + 1
    fits(
        f"{f} complex over Z^{h} -> Z^{g}",
        (_term_rank(f.kind, n, k, h, g, cap) for k in range(n + 1)),
    )


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

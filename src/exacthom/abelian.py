"""Finitely generated abelian groups and chain complexes of free ones.

A group is kept in invariant-factor canonical form, so two groups are
isomorphic exactly when they compare equal. Homology of a complex of free
abelian groups comes from two transform-free Smith diagonals: the cokernel
of the incoming differential carries the torsion, and the rank of the
outgoing one corrects the free part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ComplexValidityError, InputError
from .linalg import IntMatrix, smith_diagonal

__all__ = [
    "FgAbGroup",
    "ChainComplex",
    "canonical_form",
    "from_cyclic_orders",
    "homology_at",
    "homology",
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
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def canonical_form(presentation: IntMatrix) -> FgAbGroup:
    """The cokernel Z^rows / (column span of the presentation matrix)."""
    diag = smith_diagonal(presentation)
    rank = sum(1 for x in diag if x)
    return FgAbGroup(
        free_rank=presentation.rows - rank,
        invariant_factors=tuple(x for x in diag if x > 1),
    )


def from_cyclic_orders(orders: Sequence[int]) -> FgAbGroup:
    """Direct sum of cyclic groups Z/order, with order 0 meaning Z."""
    orders = [int(x) for x in orders]
    if any(x < 0 for x in orders):
        raise InputError("cyclic orders must be nonnegative")
    return canonical_form(IntMatrix.diagonal(orders))


@dataclass(frozen=True)
class ChainComplex:
    """A bounded complex of free abelian groups.

    ranks[p] is the rank of the term in degree bottom_degree + p, and
    differentials[p] maps the term in degree bottom_degree + p + 1 to the
    one in degree bottom_degree + p. Construction validates both the shape
    chaining and d(d(x)) = 0.
    """

    bottom_degree: int
    ranks: tuple[int, ...]
    differentials: tuple[IntMatrix, ...]

    def __post_init__(self) -> None:
        ranks = tuple(int(r) for r in self.ranks)
        object.__setattr__(self, "ranks", ranks)
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
            if not (self.differentials[p] @ self.differentials[p + 1]).is_zero():
                raise ComplexValidityError(
                    f"differentials {p} and {p + 1} do not compose to zero"
                )

    @property
    def top_degree(self) -> int:
        return self.bottom_degree + len(self.ranks) - 1

    def rank_at(self, degree: int) -> int:
        return self.ranks[degree - self.bottom_degree]

    def differential_into(self, degree: int) -> IntMatrix:
        """The map arriving at the given degree (zero map above the top)."""
        p = degree - self.bottom_degree
        if p < len(self.differentials):
            return self.differentials[p]
        return IntMatrix.zeros(self.ranks[p], 0)

    def differential_out_of(self, degree: int) -> IntMatrix:
        """The map leaving the given degree (zero map at the bottom)."""
        p = degree - self.bottom_degree
        if p >= 1:
            return self.differentials[p - 1]
        return IntMatrix.zeros(0, self.ranks[p])


def homology_at(d_in: IntMatrix, d_out: IntMatrix) -> FgAbGroup:
    """ker(d_out) / im(d_in) for one composable pair of differentials.

    ker(d_out) is a saturated sublattice of the middle term Z^n and the
    quotient Z^n/ker is the image of d_out, which is free, so the sequence
    0 -> ker/im -> Z^n/im(d_in) -> im(d_out) -> 0 splits. The homology is
    therefore the cokernel of d_in with its free rank cut by rank(d_out);
    no kernel coordinates are ever computed, which keeps the entries small.
    """
    if d_out.cols != d_in.rows:
        raise ComplexValidityError(
            f"differentials do not chain: d_out has {d_out.cols} columns "
            f"but d_in has {d_in.rows} rows"
        )
    if not (d_out @ d_in).is_zero():
        raise ComplexValidityError("d_out composed with d_in is nonzero")
    total = canonical_form(d_in)
    rank_out = sum(1 for x in smith_diagonal(d_out) if x)
    return FgAbGroup(total.free_rank - rank_out, total.invariant_factors)


def homology(c: ChainComplex, degree: int) -> FgAbGroup:
    """Homology of the complex at one degree inside its support range."""
    if degree < c.bottom_degree or degree > c.top_degree:
        raise InputError(
            f"degree {degree} outside complex range "
            f"[{c.bottom_degree}, {c.top_degree}]"
        )
    return homology_at(c.differential_into(degree), c.differential_out_of(degree))

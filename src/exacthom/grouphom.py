"""Homology of small finite groups with free Z[G]-module coefficients.

A group is a validated multiplication table with the identity at index 0.
Modules are free Z-modules with one integer action matrix per element,
stored as sparse columns, the form every route reads.
When the group splits over its generating set, as Z/o_1 x ... x Z/o_k,
homology comes from the tensor product of the factors' 2-periodic
resolutions (_product_homologies; one factor when the group is cyclic).
Otherwise it comes from the relation-module sequence
0 -> H_2n -> (R^(x)n (x) M)_G -> H_1(F, R^(x)(n-1) (x) M) -> H_(2n-1) -> 0
of the table's generating set, whose middle map is built as one sparse
four-term complex (_homologies_four_term). The normalized bar complex
stays as an explicit route (_bar_homologies): its words have no identity
letter, so degree k has (|G| - 1)^k of them instead of |G|^k, and a face
that merges two letters into the identity is degenerate and dropped. The
product, four-term and bar routes check a configurable entry budget
before they build anything; on a cyclic group the degrees fold to their
period, so the product window has at most four terms of the module's rank
at any degree and no budget. Every matrix of the
sequence, coinvariants, H_1 of the free group, the product resolution's
t - 1 and tensor_gmodule's actions come from one writer of sparse action
columns (_action_columns), which reads the stored columns of the tensor
factors R, ..., R, M and never forms R^(x)(n-1) (x) M or a Kronecker
product; the bar complex's twisted face reads the module's columns
directly. The
Magnus embedding realizes the relation module of a finite presentation as
an explicit kernel lattice inside Z[G]^generators, with Fox derivatives
giving the words' images there.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .abelian import ChainComplex, FgAbGroup, canonical_form, homologies, homology, homology_at
from .errors import InputError, InvariantViolation, ResourceBudgetError
from .linalg import IntMatrix, SparseMatrix, _capped_power, _capped_product, kernel_basis, solve

__all__ = [
    "FiniteGroupTable",
    "FpGroupPresentation",
    "GModuleFree",
    "Word",
    "group_ring",
    "augmentation_ideal",
    "fox_derivative",
    "MagnusSequence",
    "magnus_sequence",
    "tensor_gmodule",
    "coinvariants",
    "h1_free",
    "homology_cyclic",
    "homology_bar",
    "homology_four_term",
    "group_homology",
    "FourTermReport",
    "four_term_report",
    "DEFAULT_BAR_BUDGET",
]

DEFAULT_BAR_BUDGET = 10**6

# A word in the generators: pairs (generator index, +1 or -1).
Word = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class FiniteGroupTable:
    """A finite group given by its full multiplication table.

    mult[i][j] is the product of elements i and j; index 0 is the identity.
    Construction validates the identity law, associativity, and two-sided
    inverses (available as the inverse property), and picks a generating
    set greedily in element order: each element not yet generated by the
    earlier picks is added (the generating_set property).
    """

    order: int
    mult: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.order
        if n < 1:
            raise InputError("group order must be at least 1")
        if len(self.mult) != n or any(len(row) != n for row in self.mult):
            raise InputError("multiplication table must be order x order")
        for row in self.mult:
            for x in row:
                if not 0 <= x < n:
                    raise InputError("table entries must be element indices")
        mult = self.mult
        for j in range(n):
            if mult[0][j] != j or mult[j][0] != j:
                raise InputError("index 0 must be a two-sided identity")
        # _closure is plain reachability, so the greedy generating set
        # exists before the table is known to be associative
        gens: list[int] = []
        reached = {0}
        for g in range(n):
            if g not in reached:
                gens.append(g)
                reached = _closure(self, gens)
        # Light's test: the a with (xa)y = x(ay) for all x, y are closed
        # under products, and every element is a product of generators, so
        # (xs)y = x(sy) for the generators s proves every triple
        for s in gens:
            times_s = operator.itemgetter(*mult[s])  # n >= 2: returns a row
            for row in mult:
                if mult[row[s]] != times_s(row):
                    raise InputError("multiplication table is not associative")
        # a two-sided inverse k is the only right inverse: ij = 0 gives
        # j = (ki)j = k(ij) = k, so the first zero of row i decides
        inverse = []
        for i, row in enumerate(mult):
            if 0 not in row or mult[row.index(0)][i] != 0:
                raise InputError(f"element {i} has no two-sided inverse")
            inverse.append(row.index(0))
        object.__setattr__(self, "_inverse", tuple(inverse))
        object.__setattr__(self, "_generating_set", tuple(gens))

    @property
    def inverse(self) -> tuple[int, ...]:
        return self._inverse  # type: ignore[attr-defined]

    @property
    def generating_set(self) -> tuple[int, ...]:
        return self._generating_set  # type: ignore[attr-defined]

    @classmethod
    def from_mult(cls, mult: Sequence[Sequence[int]]) -> "FiniteGroupTable":
        if not isinstance(mult, Sequence):
            raise InputError("'mult' must be a list of table rows")
        rows = tuple(_int_tuple(row, "every 'mult' row") for row in mult)
        return cls(len(rows), rows)

    @classmethod
    def cyclic(cls, m: int) -> "FiniteGroupTable":
        if m < 1:
            raise InputError("cyclic group order must be at least 1")
        return cls(m, tuple(tuple((i + j) % m for j in range(m)) for i in range(m)))

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.mult[x][g]
            k += 1
        return k

    def generator(self) -> Optional[int]:
        """Smallest element generating the whole group, None if not cyclic."""
        for g in range(self.order):
            if self.element_order(g) == self.order:
                return g
        return None

    def is_cyclic(self) -> bool:
        return self.generator() is not None


def _closure(table: FiniteGroupTable, elements: Sequence[int]) -> set[int]:
    """The subgroup the elements generate.

    In a finite group every inverse is a positive power, so products of the
    elements alone reach the whole subgroup.
    """
    reached = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in elements:
            y = table.mult[x][g]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


@dataclass(frozen=True)
class FpGroupPresentation:
    """A finite presentation mapping onto a finite group table.

    assignment[i] is the element the i-th generator maps to; construction
    checks every relator evaluates to the identity and that the assigned
    elements generate the whole group. magnus is built once and kept.
    """

    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    target: FiniteGroupTable
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_generator_names(self.generators)
        if len(self.assignment) != len(self.generators):
            raise InputError("one assigned element per generator is required")
        for g in self.assignment:
            if not 0 <= g < self.target.order:
                raise InputError("assignment entries must be element indices")
        for word in self.relators:
            for gen, sign in word:
                if not 0 <= gen < len(self.generators):
                    raise InputError("relator uses an unknown generator")
                if sign not in (1, -1):
                    raise InputError("relator letter signs must be +1 or -1")
            if self.evaluate(word) != 0:
                raise InputError("every relator must evaluate to the identity")
        if len(_closure(self.target, self.assignment)) != self.target.order:
            raise InputError("assigned elements do not generate the group")

    def evaluate(self, word: Word) -> int:
        """Image of a word in the target group."""
        x = 0
        for gen, sign in word:
            g = self.assignment[gen]
            if sign < 0:
                g = self.target.inverse[g]
            x = self.target.mult[x][g]
        return x

    @functools.cached_property
    def magnus(self) -> "MagnusSequence":
        """magnus_sequence(self), computed once per presentation object."""
        return magnus_sequence(self)

    @classmethod
    def from_strings(
        cls,
        generators: Sequence[str],
        relator_strings: Sequence[str],
        target: FiniteGroupTable,
        assignment: Sequence[int],
    ) -> "FpGroupPresentation":
        generators = tuple(generators)
        _check_generator_names(generators)
        index = {name: i for i, name in enumerate(generators)}
        relators = tuple(_parse_word(s, index) for s in relator_strings)
        return cls(generators, relators, target, _int_tuple(assignment, "'assignment'"))


def _check_generator_names(generators: tuple[str, ...]) -> None:
    """InputError unless the names are distinct and each is one lowercase
    ASCII letter, the only names a relator string can spell."""
    for name in generators:
        if not (isinstance(name, str) and len(name) == 1 and "a" <= name <= "z"):
            raise InputError(f"generator {name!r} is not one lowercase ASCII letter")
    if len(set(generators)) != len(generators):
        raise InputError("generator names must be distinct")


def _int_tuple(values: Sequence[int], what: str) -> tuple[int, ...]:
    """values as a tuple, or an InputError naming `what` unless values is a
    sequence of ints; bools do not count as ints."""
    if not isinstance(values, Sequence) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in values
    ):
        raise InputError(f"{what} must be a list of integers")
    return tuple(values)


def _parse_word(text: str, index: dict[str, int]) -> Word:
    word: list[tuple[int, int]] = []
    for ch in text:
        if ch.isspace():
            continue
        low = ch.lower()
        if low not in index:
            raise InputError(f"unknown generator letter {ch!r}")
        word.append((index[low], -1 if ch.isupper() else 1))
    return tuple(word)


@dataclass(frozen=True)
class GModuleFree:
    """A free Z-module with an integer G-action, one matrix per element.

    The actions may be given dense or sparse and are stored sparse, as
    SparseMatrix columns with rows ascending. The stored columns are shared
    (a trivial module gives every element one matrix), so nothing may
    change them. The identity must act as the identity matrix, and
    rho(s) rho(h) must be rho(sh) for every s in the group's generating set
    and every element h. That is the whole group law: by induction on the
    length of a word in the generators, rho(g) rho(h) = rho(gh) for all g
    and h, so in particular rho(g^-1) is the inverse of rho(g).
    """

    group: FiniteGroupTable
    rank: int
    action: tuple[SparseMatrix, ...]

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise InputError("module rank must be nonnegative")
        if len(self.action) != self.group.order:
            raise InputError("one action matrix per group element is required")
        for m in self.action:
            if m.rows != self.rank or m.cols != self.rank:
                raise InputError("action matrices must be rank x rank")
        dense = [IntMatrix(self.rank, self.rank, m.entries) for m in self.action]
        if dense[0] != IntMatrix.identity(self.rank):
            raise InputError("the identity element must act as the identity matrix")
        mult = self.group.mult
        for s in self.group.generating_set:
            for h in range(self.group.order):
                if dense[s] @ dense[h] != dense[mult[s][h]]:
                    raise InputError("action matrices do not follow the group law")
        object.__setattr__(self, "action", tuple(map(SparseMatrix.from_dense, dense)))

    @classmethod
    def _valid_by_construction(
        cls, group: FiniteGroupTable, rank: int, action: tuple[SparseMatrix, ...]
    ) -> "GModuleFree":
        """A module whose action follows the group law because it was derived
        from checked actions or from the checked table; the check is not
        repeated. Every column must list its rows ascending."""
        module = object.__new__(cls)
        object.__setattr__(module, "group", group)
        object.__setattr__(module, "rank", rank)
        object.__setattr__(module, "action", action)
        return module

    @classmethod
    def trivial(cls, group: FiniteGroupTable, rank: int = 1) -> "GModuleFree":
        if rank < 0:
            raise InputError("module rank must be nonnegative")
        ident = SparseMatrix._unchecked(rank, rank, tuple({j: 1} for j in range(rank)))
        return cls._valid_by_construction(group, rank, (ident,) * group.order)


def group_ring(g: FiniteGroupTable) -> GModuleFree:
    """Z[G] with basis the elements and the left regular action."""
    n = g.order
    # column j of rho(elt) is e_(elt j)
    actions = tuple(SparseMatrix._unchecked(n, n, tuple({i: 1} for i in row)) for row in g.mult)
    # rho(x) rho(y) e_h = e_(x(yh)) = e_((xy)h) by the table's associativity
    return GModuleFree._valid_by_construction(g, n, actions)


def augmentation_ideal(g: FiniteGroupTable) -> GModuleFree:
    """The kernel of the sum-of-coefficients map on Z[G].

    Basis element h-1 for each nonidentity element h, under the index map
    h -> h - 1; the action is g(h-1) = (gh-1) - (g-1) with x-1 read as zero
    when x is the identity.
    """
    n = g.order
    rank = n - 1
    actions = []
    for elt in range(n):
        columns = []
        for h in range(1, n):
            # gh != elt since h is not the identity, so the rows differ
            col = {gh - 1: 1} if (gh := g.mult[elt][h]) else {}
            if elt:
                col[elt - 1] = -1
            columns.append(dict(sorted(col.items())))
        actions.append(SparseMatrix._unchecked(rank, rank, tuple(columns)))
    # a submodule of Z[G] in the basis h - 1: the regular action restricted
    return GModuleFree._valid_by_construction(g, rank, tuple(actions))


def fox_derivative(word: Word, s: int, pres: FpGroupPresentation) -> list[int]:
    """The free derivative of a word at generator s, pushed into Z[G].

    Coordinates are on the group element basis: entry g is the coefficient
    of g. Satisfies d(uv) = d(u) + pi(u) d(v) and d(s^-1) = -pi(s)^-1.
    """
    if not 0 <= s < len(pres.generators):
        raise InputError("unknown generator index for the derivative")
    table = pres.target
    out = [0] * table.order
    prefix = 0
    for gen, sign in word:
        g = pres.assignment[gen]
        if sign > 0:
            if gen == s:
                out[prefix] += 1
            prefix = table.mult[prefix][g]
        else:
            g_inv = table.inverse[g]
            prefix = table.mult[prefix][g_inv]
            if gen == s:
                out[prefix] -= 1
    return out


class MagnusSequence(NamedTuple):
    """sigma presented on element basis, the relation module, its inclusion."""

    sigma: IntMatrix
    relation_module: GModuleFree
    inclusion: IntMatrix


def magnus_sequence(pres: FpGroupPresentation) -> MagnusSequence:
    """The free-differential calculus sequence of a finite presentation.

    sigma maps Z[G]^generators (basis g (x) e_s, column index s*order + g)
    onto the augmentation ideal by g (x) e_s -> g(pi(s) - 1). Its kernel is
    the relation module: a free Z-module of rank order*gens - order + 1 on
    which G acts by left multiplication, returned with the kernel basis as
    its inclusion back into Z[G]^generators.
    """
    table = pres.target
    n = table.order
    gens = len(pres.generators)
    sigma = _sigma(pres)
    kernel = kernel_basis(sigma)
    k = kernel.cols

    # One solve for all n translates side by side: translate g is columns
    # g*k .. g*k + k - 1, and its row s*n + h is the kernel's row s*n + g^-1 h.
    rows = kernel.entries
    translates = tuple(
        tuple(itertools.chain(*(rows[s * n + table.mult[table.inverse[g]][h]] for g in range(n))))
        for s in range(gens)
        for h in range(n)
    )
    coords = solve(kernel, IntMatrix(n * gens, n * k, translates))
    if coords is None:
        raise InvariantViolation("relation module is not stable under the action")
    columns = SparseMatrix.from_dense(coords).columns
    actions = tuple(SparseMatrix._unchecked(k, k, columns[elt * k : elt * k + k]) for elt in range(n))
    # G permutes Z[G]^generators by left multiplication (rho), and with K of
    # full column rank, K rho_R(g) = rho(g) K determines rho_R(g); so rho_R
    # follows the group law because rho does
    module = GModuleFree._valid_by_construction(table, k, actions)
    return MagnusSequence(sigma, module, kernel)


def _sigma(pres: FpGroupPresentation) -> IntMatrix:
    """The sigma of magnus_sequence(pres), rows on the basis h - 1, h != 1."""
    table = pres.target
    n = table.order
    gens = len(pres.generators)
    grid = [[0] * (n * gens) for _ in range(n - 1)]
    for s in range(gens):
        pi_s = pres.assignment[s]
        for g in range(n):
            col = s * n + g
            g_pi = table.mult[g][pi_s]
            if g_pi != 0:
                grid[g_pi - 1][col] += 1
            if g != 0:
                grid[g - 1][col] -= 1
    return IntMatrix.from_rows(grid, cols=n * gens)


# The most entries tensor_gmodule writes, |G| * (rank_a * rank_b)^2.
_TENSOR_LIMIT = 2**22


def tensor_gmodule(a: GModuleFree, b: GModuleFree) -> GModuleFree:
    """Tensor product over Z with the diagonal action, a's index major, its
    Kronecker actions written by _action_columns. The homology routes never
    form it: they read the factors' actions through _action_columns. A
    product whose action matrices have more than _TENSOR_LIMIT entries in
    all is refused before any is written."""
    if a.group != b.group:
        raise InputError("tensor factors must share their group")
    rank = a.rank * b.rank
    if a.group.order * rank * rank > _TENSOR_LIMIT:
        raise ResourceBudgetError(
            f"tensor product of ranks {a.rank} and {b.rank} has {a.group.order} action "
            f"matrices of {rank}x{rank} entries, over the limit of {_TENSOR_LIMIT} entries"
        )
    actions = tuple(
        SparseMatrix._unchecked(rank, rank, tuple(_action_columns((a, b), g))) for g in range(a.group.order)
    )
    # (x (x) y)(x' (x) y') = xx' (x) yy', so the diagonal action of two
    # valid actions is valid
    return GModuleFree._valid_by_construction(a.group, rank, actions)


def _action_columns(factors: Sequence[GModuleFree], g: int) -> list[dict[int, int]]:
    """The sparse columns of rho(g) on the tensor product of the factors,
    the first factor's index major: column (j_1, ..., j_k) is the outer
    product of column j_i of each factor's stored rho(g), rows ascending.
    Only element g's actions are read, no Kronecker matrix is formed, and
    the columns are new dicts, the caller's to change.

    The product grows from the last factor, so the coefficient module M of
    (R, ..., R, M) enters while it is small."""
    *head, last = factors
    columns, rank = list(map(dict, last.action[g].columns)), last.rank
    for m in reversed(head):
        columns = [
            {i * rank + u: x * y for i, x in a.items() for u, y in b.items()}
            for a in m.action[g].columns
            for b in columns
        ]
        rank *= m.rank
    return columns


def _minus_one(factors: Sequence[GModuleFree], elements: Sequence[int]) -> SparseMatrix:
    """The sparse columns of [rho(g_1) - 1 | rho(g_2) - 1 | ...] on the
    tensor product of the factors, which must share their group; no
    elements give a rank x 0 matrix, a legal presentation."""
    if any(m.group != factors[0].group for m in factors):
        raise InputError("tensor factors must share their group")
    columns = []
    for g in elements:
        for j, col in enumerate(_action_columns(factors, g)):
            v = col.pop(j, 0) - 1
            if v:
                col[j] = v
            columns.append(col)
    rank = math.prod(m.rank for m in factors)
    return SparseMatrix._unchecked(rank, len(columns), tuple(columns))


def coinvariants(m: GModuleFree, *more: GModuleFree) -> FgAbGroup:
    """H_0(G, M): the quotient of M by all gm - m, where M is m, or with
    more modules the tensor product m (x) more[0] (x) ... with the diagonal
    action.

    Since (gh - 1)m = (g - 1)(hm) + (h - 1)m, the images of s - 1 for s in
    the group's generating set already span every gm - m (Brown, Cohomology
    of Groups, II.2), so only those blocks are stacked.
    """
    return canonical_form(_minus_one((m, *more), m.group.generating_set))


def h1_free(pres: FpGroupPresentation, n: GModuleFree, *more: GModuleFree) -> FgAbGroup:
    """H_1 of the free group on the presentation's generators, acting via pi,
    on N = n, or with more modules N = n (x) more[0] (x) ...

    This is the kernel of (n_s)_s -> sum_s (pi(s) - 1) n_s, a free group;
    only the generator assignments of pres are used, not its relators.
    """
    if n.group != pres.target:
        raise InputError("coefficient module must live over the presentation's group")
    stacked = _minus_one((n, *more), pres.assignment)
    return homologies(ChainComplex(0, (stacked.rows, stacked.cols), (stacked,)))[1]


def homology_cyclic(coeff: GModuleFree, i: int) -> FgAbGroup:
    """H_i of a cyclic group via its 2-periodic resolution.

    The designated generator is the smallest element index generating the
    group. The resolution ... -> ZG -N-> ZG -(t-1)-> ZG -> Z alternates
    t - 1 in odd and the norm N = sum_g g in even differentials, so
    H_0 = coker(t - 1), odd degrees are ker(t - 1)/im(norm), and positive
    even degrees ker(norm)/im(t - 1). It is the one-factor product
    resolution, read from the three terms around degree i.
    """
    if i < 0:
        raise InputError("homology degree must be nonnegative")
    t = coeff.group.generator()
    if t is None:
        raise InputError("the periodic resolution needs a cyclic group")
    return _product_homologies(coeff, (t,), i, i)[0]


def _split_factors(table: FiniteGroupTable) -> Optional[tuple[int, ...]]:
    """Elements t_1, ..., t_k for which Z/o_1 x ... x Z/o_k -> G, sending
    the generators to them, is an isomorphism, or None if the generating
    set gives none.

    A cyclic table gives (generator(),). Otherwise the greedy generating
    set qualifies when its elements commute pairwise and their orders
    multiply to |G|: the map is then a homomorphism onto G between two sets
    of the same size."""
    t = table.generator()
    if t is not None:
        return (t,)
    gens, mult = table.generating_set, table.mult
    if all(mult[a][b] == mult[b][a] for a, b in itertools.combinations(gens, 2)) and (
        math.prod(map(table.element_order, gens)) == table.order
    ):
        return gens
    return None


def _compositions(d: int, k: int) -> list[tuple[int, ...]]:
    """The compositions of d into k nonnegative parts, lexicographically
    descending."""
    if k == 1:
        return [(d,)]
    return [(first, *rest) for first in range(d, -1, -1) for rest in _compositions(d - first, k - 1)]


def _product_budget(rank: int, k: int, lo: int, hi: int, budget: int) -> None:
    """ResourceBudgetError unless the differentials that _product_homologies
    writes for H_lo..H_hi with k factors, over a module of the given rank,
    have at most budget entries (rows*cols) in all; nothing is built. Term d
    has rank * C(d + k - 1, k - 1) rows, capped just above the budget, and
    the sum stops once it passes the budget. Rank 0 counts as rank 1, so
    the blocks are capped too."""
    cap = budget + 1
    rank = max(rank, 1)
    bottom = max(lo - 1, 0)
    below = _capped_product((rank, math.comb(bottom + k - 1, k - 1)), cap)
    total = 0
    for d in range(bottom + 1, hi + 2):
        above = _capped_product((rank, math.comb(d + k - 1, k - 1)), cap)
        total += below * above
        if total > budget:
            size = f"{total} entries" if d == hi + 1 and above < cap else f"over {budget} entries"
            raise ResourceBudgetError(
                f"product resolution differentials in degrees {bottom + 1}..{hi + 1} have {size}, "
                f"budget is {budget}"
            )
        below = above


def _product_homologies(coeff: GModuleFree, factors: Sequence[int], lo: int, hi: int) -> tuple[FgAbGroup, ...]:
    """H_lo, ..., H_hi of G with coefficients in coeff, for factors as
    _split_factors gives them, from P (x)_G M with P = P_1 (x) ... (x) P_k
    the tensor product of the factors' 2-periodic resolutions, a free
    Z[G]-resolution of Z (Brown, Cohomology of Groups, V.1).

    P_d (x)_G M has one block M per composition c of d into k parts. On
    block c, factor f with c_f > 0 maps to block c - e_f by rho(t_f) - 1
    when c_f is odd and by the norm sum_j rho(t_f^j) when c_f is even, with
    the sign (-1)^(c_1 + ... + c_(f-1)). Only the window of degrees
    max(lo - 1, 0)..hi + 1 is written, as one sparse complex whose
    d(d(x)) = 0 check proves the signs, and one reduction reads H_lo..H_hi.
    """
    mult, rank = coeff.group.mult, coeff.rank
    maps = []  # maps[f][c_f % 2]: the columns of the norm and of rho(t_f) - 1
    for t in factors:
        total = [collections.Counter() for _ in range(rank)]
        x = 0
        while True:
            for acc, col in zip(total, coeff.action[x].columns):
                acc.update(col)
            x = mult[x][t]
            if not x:
                break
        norm = [{r: v for r, v in sorted(acc.items()) if v} for acc in total]
        maps.append((norm, _minus_one((coeff,), (t,)).columns))
    bottom = max(lo - 1, 0)
    blocks = [_compositions(d, len(factors)) for d in range(bottom, hi + 2)]
    diffs = []
    for below, above in zip(blocks, blocks[1:]):
        at = {c: i * rank for i, c in enumerate(below)}
        columns = []
        for c in above:
            faces, sign = [], 1
            for f, part in enumerate(c):
                if part:
                    faces.append((at[(*c[:f], part - 1, *c[f + 1 :])], sign, maps[f][part % 2]))
                    if part % 2:
                        sign = -sign
            for j in range(rank):
                columns.append({base + r: s * v for base, s, m in faces for r, v in m[j].items()})
        diffs.append(SparseMatrix._unchecked(len(below) * rank, len(above) * rank, tuple(columns)))
    c = ChainComplex(bottom, tuple(len(b) * rank for b in blocks), tuple(diffs))
    return homologies(c)[lo - bottom : hi - bottom + 1]


def _bar_differential(coeff: GModuleFree, k: int) -> SparseMatrix:
    """d_k of the normalized bar complex C_k = M (x) Z[(G - e)^k].

    Basis of C_k: pairs (word of k nonidentity elements, module coordinate),
    index word-major, with letter g read as the digit g - 1 of a base
    |G| - 1 word index.
    d(m (x) [g1|..|gk]) = g1^-1 m (x) [g2|..|gk]
                          + sum_j (-1)^j m (x) [..|g_j g_{j+1}|..]
                          + (-1)^k m (x) [g1|..|g_{k-1}],
    where a middle face whose merged letter g_j g_{j+1} is the identity is
    degenerate and contributes nothing. The words containing the identity
    span an acyclic subcomplex of the full bar complex, so this quotient
    has the same homology for every coefficient module (Mac Lane,
    Homology, ch. IV).
    """
    table = coeff.group
    base = table.order - 1
    rank = coeff.rank
    tail = base ** (k - 1)
    rows = rank * tail
    cols = rows * base
    face0 = [()] + [coeff.action[table.inverse[g]].columns for g in range(1, table.order)]
    columns = []
    sign_last = -1 if k % 2 else 1
    for widx, word in enumerate(itertools.product(range(1, table.order), repeat=k)):
        # face 0 drops g1 and twists the coefficient
        base0 = (widx % tail) * rank
        sparse = face0[word[0]]
        # middle face j merges the letters at positions j - 1 and j: the
        # letters before them are widx // (low * base^2), those after widx % low;
        # the last face drops g_k. Each face writes one block of rank rows,
        # face 0 (sign 0 here) the twisted coefficient and the others +-m.
        faces = [(base0, 0), ((widx // base) * rank, sign_last)]
        low = tail
        for j in range(1, k):
            low //= base
            merged = table.mult[word[j - 1]][word[j]]
            if merged:
                idx = (widx // (low * base * base) * base + merged - 1) * low + widx % low
                faces.append((idx * rank, -1 if j % 2 else 1))
        faces.sort()
        # faces on one block can meet in one row and cancel; otherwise the
        # blocks in order write each column's rows ascending
        clash = len({face for face, _ in faces}) < len(faces)
        for j in range(rank):
            col: dict[int, int] = {}
            for face, sign in faces:
                if sign:
                    col[face + j] = col.get(face + j, 0) + sign
                else:
                    for t, c in sparse[j].items():
                        col[face + t] = col.get(face + t, 0) + c
            columns.append({i: col[i] for i in sorted(col) if col[i]} if clash else col)
    return SparseMatrix._unchecked(rows, cols, tuple(columns))


def homology_bar(coeff: GModuleFree, i: int, budget: int = DEFAULT_BAR_BUDGET) -> FgAbGroup:
    """H_i(G, coeff) from the normalized bar complex.

    The differential d_(i+1) into degree i, of rank*(|G| - 1)^i rows and
    rank*(|G| - 1)^(i+1) columns, must fit within the entry budget
    (rows*cols), otherwise the computation is rejected rather than
    attempted; d_i out of degree i is never larger. The sizes are computed
    capped just above the budget, so a huge degree forms no huge number.
    """
    if i < 0:
        raise InputError("homology degree must be nonnegative")
    _bar_budget(coeff, i, budget)
    rank = coeff.rank
    d_in = _bar_differential(coeff, i + 1)
    if i == 0:
        d_out = IntMatrix.zeros(0, rank)
    else:
        d_out = _bar_differential(coeff, i)
    return homology_at(d_in=d_in, d_out=d_out)


def _bar_budget(coeff: GModuleFree, i: int, budget: int) -> None:
    """homology_bar's budget check at degree i >= 0; nothing is built."""
    base = coeff.group.order - 1
    cap = budget + 1
    rows = _capped_product((coeff.rank, _capped_power(base, i, cap)), cap)
    cols = _capped_product((coeff.rank, _capped_power(base, i + 1, cap)), cap)
    if rows * cols > budget:
        size = f"is {rows}x{cols} = {rows * cols} entries" if cols < cap else f"has over {budget} columns"
        raise ResourceBudgetError(f"bar differential at degree {i + 1} {size}, budget is {budget}")


def _sequence_budget(pres: FpGroupPresentation, coeff: GModuleFree, n: int, budget: int) -> None:
    """ResourceBudgetError unless n and the coinvariant matrix of
    B = R^(x)n (x) M fit the budget; nothing is built. The matrix is
    rank_B x blocks*rank_B, with rank_B = rank_R^n * rank_M capped just
    above the budget, rank_R = |G|*gens - |G| + 1 and blocks = max(|S|, 1)
    for the generating set S."""
    if n > budget:
        raise ResourceBudgetError(f"the sequence degree n is over the budget of {budget}")
    order = pres.target.order
    rank_r = order * len(pres.generators) - order + 1
    cap = budget + 1
    rank_b = _capped_product((_capped_power(rank_r, n, cap), coeff.rank), cap)
    blocks = max(len(pres.target.generating_set), 1)
    entries = rank_b * rank_b * blocks
    if entries > budget:
        size = f"has over {budget} rows"
        if rank_b < cap:
            size = f"is {rank_b}x{blocks * rank_b} = {entries} entries"
        raise ResourceBudgetError(f"coinvariant matrix of R^(x){n} (x) M {size}, budget is {budget}")


def _sequence_complex(pres: FpGroupPresentation, factors: Sequence[GModuleFree]) -> ChainComplex:
    """The middle map phi: B -> C of the sequence with N the tensor product
    of the factors (R, ..., R, M), as the complex
    N <-delta- N^d <-Phi- R (x) N <-P- Z^(|S| rank_R rank_N).

    d is the number of generators, pi the assignment, R and K the relation
    module and inclusion of pres.magnus (row s*|G| + g of K is g (x) e_s)
    and S the group's generating set. delta is h1_free's matrix, the blocks
    rho_N(pi(s)) - 1, so its kernel is C = H_1(F, N). Phi, R index major,
    sends r_j (x) x to sum_(s, g) K[s*|G| + g, j] e_s (x) rho_N((g pi(s))^-1) x:
    K (x) 1, the untwisting (g e_s) (x) x -> e_s (x) g^-1 x of
    (ZG^d (x) N)_G = N^d, then y_s -> pi(s)^-1 y_s, which carries C in
    Gruenberg's coordinates (the kernel of the blocks rho_N(pi(s)^-1) - 1;
    "Resolutions by relations", J. London Math. Soc. 35, 1960) onto ker
    delta. P is coinvariants' matrix, the blocks rho_R(s) (x) rho_N(s) - 1
    over S, so coker P = B. Every block is written from the factors'
    actions, so N itself is never built. The complex's d(d(x)) = 0 check
    proves delta Phi = 0, so Phi lands in C, and Phi P = 0, so phi is well
    defined on B. Then ker phi is the homology at R (x) N and coker phi at
    N^d.
    """
    table = pres.target
    order = table.order
    gens = len(pres.assignment)
    relation = pres.magnus.relation_module
    delta = _minus_one(factors, pres.assignment)
    rn = delta.rows
    untwist = [_action_columns(factors, table.inverse[g]) for g in range(order)]
    k = pres.magnus.inclusion.entries
    columns = []
    for j in range(relation.rank):
        terms = [
            (s * rn, untwist[table.mult[g][pi_s]], x)
            for s, pi_s in enumerate(pres.assignment)
            for g in range(order)
            if (x := k[s * order + g][j])
        ]
        for t in range(rn):
            col: dict[int, int] = {}
            for base, cols, x in terms:
                for u, y in cols[t].items():
                    col[base + u] = col.get(base + u, 0) + x * y
            columns.append({i: v for i, v in col.items() if v})
    phi = SparseMatrix._unchecked(gens * rn, len(columns), tuple(columns))
    p = _minus_one((relation, *factors), table.generating_set)
    return ChainComplex(0, (rn, phi.rows, phi.cols, p.cols), (delta, phi, p))


def homology_four_term(coeff: GModuleFree, i: int, budget: int = DEFAULT_BAR_BUDGET) -> FgAbGroup:
    """H_i(G, coeff) from the relation-module sequence: the one-degree case
    of _homologies_four_term."""
    return _homologies_four_term(coeff, (i,), budget)[0]


def _homologies_four_term(coeff: GModuleFree, degrees: Sequence[int], budget: int) -> list[FgAbGroup]:
    """H_i(G, coeff) for each i in degrees, from the relation-module sequence.

    The presentation takes the group's generating set S as its generators,
    pi(s) = s, and no relators: sigma and its kernel R depend only on the
    generators' images. H_0 is the coinvariants of coeff. For i = 2n - 1
    and i = 2n, n >= 1, H_i is coker phi and ker phi of the degree-n
    sequence, read off _sequence_complex. Before any degree is computed,
    every n, ascending, and its B's coinvariant matrix must fit the budget
    (_sequence_budget, with n = 0 for H_0, whose B is M). The presentation's
    one Magnus sequence serves every degree, and one complex both of its n.
    """
    table = coeff.group
    gens = table.generating_set
    letters = tuple(chr(ord("a") + k) for k in range(len(gens)))
    pres = FpGroupPresentation(letters, (), table, gens)
    if any(i < 0 for i in degrees):
        raise InputError("homology degree must be nonnegative")
    for n in sorted({(i + 1) // 2 for i in degrees}):
        _sequence_budget(pres, coeff, n, budget)
    found: dict[int, FgAbGroup] = {}
    wanted = set(degrees)
    for i in degrees:
        if i in found:
            continue
        if i == 0:
            found[0] = coinvariants(coeff)
            continue
        n = (i + 1) // 2
        c = _sequence_complex(pres, (pres.magnus.relation_module,) * (n - 1) + (coeff,))
        if {2 * n - 1, 2 * n} <= wanted:
            found[2 * n - 1], found[2 * n] = homologies(c)[1:3]
        else:
            found[i] = homology(c, 2 - i % 2)
    return [found[i] for i in degrees]


def group_homology(coeff: GModuleFree, i: int, *, budget: int = DEFAULT_BAR_BUDGET) -> FgAbGroup:
    """H_i(G, coeff) from the route the group chooses: the product of its
    factors' periodic resolutions when it splits over its generating set as
    a product of cyclic groups (one factor when it is cyclic; budget then
    caps the entries of the differentials written, except on a cyclic
    group), and the relation-module sequence (homology_four_term)
    otherwise, where budget caps B's coinvariant matrix. To force a route,
    call homology_cyclic, homology_bar or homology_four_term.
    """
    return _group_homologies(coeff, (i,), budget)[0]


def _group_homologies(coeff: GModuleFree, degrees: Sequence[int], budget: int) -> list[FgAbGroup]:
    """H_i(G, coeff) at each of the degrees in turn, by group_homology's
    route, every degree budgeted before any is computed. The product route
    writes one window from the lowest to the highest degree; on a cyclic
    group, where H_i = H_(2 - i % 2) for i >= 1, the degrees fold to their
    period first, so the window has at most four terms of the module's rank
    and is not budgeted. The four-term route shares its Magnus sequence and
    complexes between the degrees."""
    if any(i < 0 for i in degrees):
        raise InputError("homology degree must be nonnegative")
    factors = _split_factors(coeff.group)
    if factors is None or not degrees:
        return _homologies_four_term(coeff, degrees, budget)
    if len(factors) == 1:
        degrees = [min(i, 2 - i % 2) for i in degrees]
    else:
        _product_budget(coeff.rank, len(factors), min(degrees), max(degrees), budget)
    lo, hi = min(degrees), max(degrees)
    found = _product_homologies(coeff, factors, lo, hi)
    return [found[i - lo] for i in degrees]


def _bar_homologies(coeff: GModuleFree, degrees: Sequence[int], budget: int) -> list[FgAbGroup]:
    """H_i(G, coeff) at each of the nonnegative degrees in turn from the
    normalized bar complex (homology_bar), every degree budgeted before any
    is computed."""
    for i in degrees:
        _bar_budget(coeff, i, budget)
    return [homology_bar(coeff, i, budget=budget) for i in degrees]


@dataclass(frozen=True)
class FourTermReport:
    """Necessary-condition checks for the 4-term sequence at degree n.

    The sequence is 0 -> A -> B -> C -> D -> 0 with A = H_{2n}(G, M),
    B = H_0(G, R^(x)n (x) M), C = H_1(F, R^(x)(n-1) (x) M), D = H_{2n-1}(G, M),
    where R is the relation module of the presentation. Exactness forces the
    alternating rank sum to vanish, the order identity |A||C| = |B||D| when
    all four groups are finite, and A to embed into B. The report does not
    use the middle map; homology_four_term builds it. A and D come from a
    route that does not read R: the product resolution when the group
    splits over its generating set, the bar complex otherwise.
    """

    n: int
    a: FgAbGroup
    b: FgAbGroup
    c: FgAbGroup
    d: FgAbGroup
    rank_check: bool
    product_check: Optional[bool]
    divisibility_check: bool

    @property
    def passed(self) -> bool:
        return self.rank_check and self.divisibility_check and self.product_check is not False


def four_term_report(
    pres: FpGroupPresentation,
    coeff: GModuleFree,
    n: int,
    budget: int = DEFAULT_BAR_BUDGET,
) -> FourTermReport:
    """Compute the four groups of the degree-n sequence and check them.

    With R = pres.magnus.relation_module and N = R^(x)(n-1) (x) M, C is
    H_1(F, N) and B the coinvariants of R (x) N, both written from the
    actions of the factors R, ..., R, M (coinvariants and h1_free with
    several modules), so neither N nor a Kronecker product is formed. A and
    D come from the product resolution when the group splits over its
    generating set (one window of at most four terms when it is cyclic) and
    from the bar route (_bar_homologies) otherwise, never from
    homology_four_term: built from the same R and N as B and C, it would
    make the checks hold by construction. Before any module is built, n and
    B's coinvariant matrix must fit the budget (_sequence_budget), and A's
    and D's differentials are budgeted before they are built (the product
    window of a non-cyclic group, or homology_bar's d_(2n+1) and d_(2n)).
    """
    if n < 1:
        raise InputError("the sequence degree n must be at least 1")
    if coeff.group != pres.target:
        raise InputError("coefficient module must live over the presented group")
    _sequence_budget(pres, coeff, n, budget)
    route = _bar_homologies if _split_factors(pres.target) is None else _group_homologies
    a, d = route(coeff, (2 * n, 2 * n - 1), budget)
    factors = (pres.magnus.relation_module,) * n + (coeff,)
    b = coinvariants(*factors)
    c = h1_free(pres, *factors[1:])
    rank_check = a.free_rank - b.free_rank + c.free_rank - d.free_rank == 0
    orders = [x.order() for x in (a, b, c, d)]
    product_check: Optional[bool] = None
    if all(o is not None for o in orders):
        product_check = orders[0] * orders[2] == orders[1] * orders[3]
    divisibility_check = (
        b.torsion_order() % a.torsion_order() == 0 and a.free_rank <= b.free_rank
    )
    return FourTermReport(
        n=n,
        a=a,
        b=b,
        c=c,
        d=d,
        rank_check=rank_check,
        product_check=product_check,
        divisibility_check=divisibility_check,
    )

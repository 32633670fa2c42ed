"""Homology of small finite groups with free Z[G]-module coefficients.

A group is a validated multiplication table with the identity at index 0.
Modules are free Z-modules with one integer action matrix per element.
Homology comes from the 2-periodic resolution when the group is cyclic and
from the normalized bar complex otherwise: its words have no identity
letter, so degree k has (|G| - 1)^k of them instead of |G|^k, and a face
that merges two letters into the identity is degenerate and dropped. Each
differential it builds must fit a configurable entry budget. Coinvariants,
H_1 of the free group and the periodic route's t - 1 all read the sparse
columns of [rho(g_1) - 1 | rho(g_2) - 1 | ...] from one writer. The Magnus
embedding realizes the relation module of a finite presentation as an
explicit kernel lattice inside Z[G]^generators, with Fox derivatives giving
the words' images there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .abelian import ChainComplex, FgAbGroup, canonical_form, homologies, homology_at
from .errors import InputError, InvariantViolation, ResourceBudgetError
from .koszul import _capped_power, _capped_product
from .linalg import IntMatrix, SparseMatrix, _kron, hstack, kernel_basis, solve

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
        for j in range(n):
            if self.mult[0][j] != j or self.mult[j][0] != j:
                raise InputError("index 0 must be a two-sided identity")
        mult = self.mult
        for i in range(n):
            for j in range(n):
                ij = mult[i][j]
                row_i = mult[i]
                for k in range(n):
                    if mult[ij][k] != row_i[mult[j][k]]:
                        raise InputError("multiplication table is not associative")
        inverse = [-1] * n
        for i in range(n):
            for j in range(n):
                if mult[i][j] == 0 and mult[j][i] == 0:
                    inverse[i] = j
                    break
            if inverse[i] < 0:
                raise InputError(f"element {i} has no two-sided inverse")
        object.__setattr__(self, "_inverse", tuple(inverse))
        gens: list[int] = []
        reached = {0}
        for g in range(n):
            if g not in reached:
                gens.append(g)
                reached = _closure(self, gens)
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

    @classmethod
    def direct_product(cls, a: "FiniteGroupTable", b: "FiniteGroupTable") -> "FiniteGroupTable":
        n = a.order * b.order

        def pack(i: int, j: int) -> int:
            return i * b.order + j

        rows = []
        for i1 in range(a.order):
            for j1 in range(b.order):
                rows.append(
                    tuple(
                        pack(a.mult[i1][i2], b.mult[j1][j2])
                        for i2 in range(a.order)
                        for j2 in range(b.order)
                    )
                )
        return cls(n, tuple(rows))

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
    elements generate the whole group.
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

    def parse_word(self, text: str) -> Word:
        """Parse a relator string; uppercase letters are inverse letters."""
        index = {name: i for i, name in enumerate(self.generators)}
        return _parse_word(text, index)

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

    The identity must act as the identity matrix, and rho(s) rho(h) must be
    rho(sh) for every s in the group's generating set and every element h.
    That is the whole group law: by induction on the length of a word in
    the generators, rho(g) rho(h) = rho(gh) for all g and h, so in
    particular rho(g^-1) is the inverse of rho(g).
    """

    group: FiniteGroupTable
    rank: int
    action: tuple[IntMatrix, ...]

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise InputError("module rank must be nonnegative")
        if len(self.action) != self.group.order:
            raise InputError("one action matrix per group element is required")
        for m in self.action:
            if m.rows != self.rank or m.cols != self.rank:
                raise InputError("action matrices must be rank x rank")
        if self.action[0] != IntMatrix.identity(self.rank):
            raise InputError("the identity element must act as the identity matrix")
        mult = self.group.mult
        for s in self.group.generating_set:
            for h in range(self.group.order):
                if self.action[s] @ self.action[h] != self.action[mult[s][h]]:
                    raise InputError("action matrices do not follow the group law")

    @classmethod
    def _valid_by_construction(
        cls, group: FiniteGroupTable, rank: int, action: tuple[IntMatrix, ...]
    ) -> "GModuleFree":
        """A module whose action follows the group law because it was derived
        from checked actions; the check is not repeated."""
        module = object.__new__(cls)
        object.__setattr__(module, "group", group)
        object.__setattr__(module, "rank", rank)
        object.__setattr__(module, "action", action)
        return module

    @classmethod
    def trivial(cls, group: FiniteGroupTable, rank: int = 1) -> "GModuleFree":
        ident = IntMatrix.identity(rank)
        return cls(group, rank, tuple(ident for _ in range(group.order)))


def group_ring(g: FiniteGroupTable) -> GModuleFree:
    """Z[G] with basis the elements and the left regular action."""
    n = g.order
    actions = []
    for elt in range(n):
        col_to_row = [g.mult[elt][j] for j in range(n)]
        grid = [[0] * n for _ in range(n)]
        for j, i in enumerate(col_to_row):
            grid[i][j] = 1
        actions.append(IntMatrix.from_rows(grid, cols=n))
    return GModuleFree(g, n, tuple(actions))


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
        grid = [[0] * rank for _ in range(rank)]
        for h in range(1, n):
            col = h - 1
            gh = g.mult[elt][h]
            if gh != 0:
                grid[gh - 1][col] += 1
            if elt != 0:
                grid[elt - 1][col] -= 1
        actions.append(IntMatrix.from_rows(grid, cols=rank))
    return GModuleFree(g, rank, tuple(actions))


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
    rows = n - 1
    grid = [[0] * (n * gens) for _ in range(rows)]
    for s in range(gens):
        pi_s = pres.assignment[s]
        for g in range(n):
            col = s * n + g
            g_pi = table.mult[g][pi_s]
            if g_pi != 0:
                grid[g_pi - 1][col] += 1
            if g != 0:
                grid[g - 1][col] -= 1
    sigma = IntMatrix.from_rows(grid, cols=n * gens)
    kernel = kernel_basis(sigma)
    k = kernel.cols

    # One solve against the kernel for all n translates side by side; the
    # coordinates of element elt are columns elt*k .. elt*k + k - 1.
    blocks = []
    for elt in range(n):
        permuted: list[tuple[int, ...]] = [()] * (n * gens)
        for s in range(gens):
            base = s * n
            for g in range(n):
                permuted[base + table.mult[elt][g]] = kernel.entries[base + g]
        blocks.append(IntMatrix(n * gens, k, tuple(permuted)))
    coords = solve(kernel, hstack(blocks))
    if coords is None:
        raise InvariantViolation("relation module is not stable under the action")
    actions = tuple(
        IntMatrix(k, k, tuple(row[elt * k : elt * k + k] for row in coords.entries))
        for elt in range(n)
    )
    # G permutes Z[G]^generators by left multiplication (rho), and with K of
    # full column rank, K rho_R(g) = rho(g) K determines rho_R(g); so rho_R
    # follows the group law because rho does
    module = GModuleFree._valid_by_construction(table, k, actions)
    return MagnusSequence(sigma, module, kernel)


def tensor_gmodule(a: GModuleFree, b: GModuleFree) -> GModuleFree:
    """Tensor product over Z with the diagonal action."""
    if a.group != b.group:
        raise InputError("tensor factors must share their group")
    actions = tuple(_kron(x, y) for x, y in zip(a.action, b.action))
    # (x (x) y)(x' (x) y') = xx' (x) yy', so the diagonal action of two
    # valid actions is valid
    return GModuleFree._valid_by_construction(a.group, a.rank * b.rank, actions)


def _minus_one(m: GModuleFree, elements: Sequence[int]) -> SparseMatrix:
    """The sparse columns of [rho(g_1) - 1 | rho(g_2) - 1 | ...], rows
    ascending; no elements give a rank x 0 matrix, a legal presentation."""
    every = range(m.rank)
    columns = []
    for g in elements:
        for j, col in enumerate(zip(*m.action[g].entries)):
            col = list(col)
            col[j] -= 1
            columns.append({i: col[i] for i in itertools.compress(every, col)})
    return SparseMatrix._unchecked(m.rank, len(columns), tuple(columns))


def coinvariants(m: GModuleFree) -> FgAbGroup:
    """H_0(G, M): the quotient of M by all gm - m.

    Since (gh - 1)m = (g - 1)(hm) + (h - 1)m, the images of s - 1 for s in
    the group's generating set already span every gm - m (Brown, Cohomology
    of Groups, II.2), so only those blocks are stacked.
    """
    return canonical_form(_minus_one(m, m.group.generating_set))


def h1_free(pres: FpGroupPresentation, n: GModuleFree) -> FgAbGroup:
    """H_1 of the free group on the presentation's generators, acting via pi.

    This is the kernel of (n_s)_s -> sum_s (pi(s) - 1) n_s, a free group;
    only the generator assignments of pres are used, not its relators.
    """
    if n.group != pres.target:
        raise InputError("coefficient module must live over the presentation's group")
    stacked = _minus_one(n, pres.assignment)
    return homologies(ChainComplex(0, (stacked.rows, stacked.cols), (stacked,)))[1]


def homology_cyclic(coeff: GModuleFree, i: int) -> FgAbGroup:
    """H_i of a cyclic group via its 2-periodic resolution.

    The designated generator is the smallest element index generating the
    group. The resolution ... -> ZG -N-> ZG -(t-1)-> ZG -> Z alternates
    t - 1 in odd and the norm N = sum_g g in even differentials, so
    H_0 = coker(t - 1), odd degrees are ker(t - 1)/im(norm), and positive
    even degrees ker(norm)/im(t - 1).
    """
    if i < 0:
        raise InputError("homology degree must be nonnegative")
    t = coeff.group.generator()
    if t is None:
        raise InputError("the periodic resolution needs a cyclic group")
    t_minus_1 = _minus_one(coeff, (t,))
    if i == 0:
        return canonical_form(t_minus_1)
    norm = coeff.action[0]
    for g in range(1, coeff.group.order):
        norm = norm + coeff.action[g]
    if i % 2:
        return homology_at(d_in=norm, d_out=t_minus_1)
    return homology_at(d_in=t_minus_1, d_out=norm)


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
    face0_sparse = [[]]
    for g in range(1, table.order):
        m = coeff.action[table.inverse[g]]
        face0_sparse.append(
            [[(t, m.entries[t][j]) for t in range(rank) if m.entries[t][j]] for j in range(rank)]
        )
    columns = []
    sign_last = -1 if k % 2 else 1
    for widx, word in enumerate(itertools.product(range(1, table.order), repeat=k)):
        # face 0 drops g1 and twists the coefficient
        base0 = (widx % tail) * rank
        sparse = face0_sparse[word[0]]
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
                    for t, c in sparse[j]:
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
    base = coeff.group.order - 1
    rank = coeff.rank
    cap = budget + 1
    rows = _capped_product((rank, _capped_power(base, i, cap)), cap)
    cols = _capped_product((rank, _capped_power(base, i + 1, cap)), cap)
    if rows * cols > budget:
        size = f"is {rows}x{cols} = {rows * cols} entries" if cols < cap else f"has over {budget} columns"
        raise ResourceBudgetError(f"bar differential at degree {i + 1} {size}, budget is {budget}")
    d_in = _bar_differential(coeff, i + 1)
    if i == 0:
        d_out = IntMatrix.zeros(0, rank)
    else:
        d_out = _bar_differential(coeff, i)
    return homology_at(d_in=d_in, d_out=d_out)


def group_homology(
    coeff: GModuleFree,
    i: int,
    method: str = "auto",
    budget: int = DEFAULT_BAR_BUDGET,
) -> FgAbGroup:
    """H_i(G, coeff), choosing the periodic or bar route.

    method "periodic" requires a cyclic group, "bar" forces the bar complex,
    and "auto" uses the periodic resolution whenever the group is cyclic.
    """
    if method not in ("auto", "periodic", "bar"):
        raise InputError(f"unknown homology method {method!r}")
    if method == "periodic" or (method == "auto" and coeff.group.is_cyclic()):
        return homology_cyclic(coeff, i)
    return homology_bar(coeff, i, budget=budget)


@dataclass(frozen=True)
class FourTermReport:
    """Necessary-condition checks for the 4-term sequence at degree n.

    The sequence is 0 -> A -> B -> C -> D -> 0 with A = H_{2n}(G, M),
    B = H_0(G, R^(x)n (x) M), C = H_1(F, R^(x)(n-1) (x) M), D = H_{2n-1}(G, M),
    where R is the relation module of the presentation. Exactness forces the
    alternating rank sum to vanish, the order identity |A||C| = |B||D| when
    all four groups are finite, and A to embed into B; the middle map itself
    is not constructed.
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

    C's module R (x) (... (x) (R (x) M)) takes n - 1 tensor steps onto M and
    B's module R (x) C one more; the Kronecker product is associative, so
    these are the actions of R^(x)(n-1) (x) M and R^(x)n (x) M. Before any
    module is built, n and the entry count of B's coinvariant matrix,
    rank_B x |S|*rank_B for the group's generating set S, must be at most
    budget; rank_B = rank_R^n * rank_M with rank_R = |G|*gens - |G| + 1 is
    computed capped just above the budget. homology_bar budgets the bar
    differentials of A and D.
    """
    if n < 1:
        raise InputError("the sequence degree n must be at least 1")
    if coeff.group != pres.target:
        raise InputError("coefficient module must live over the presented group")
    if n > budget:
        raise ResourceBudgetError(f"the sequence degree n is over the budget of {budget}")
    order = pres.target.order
    cap = budget + 1
    rank_b = _capped_product(
        (_capped_power(order * len(pres.generators) - order + 1, n, cap), coeff.rank), cap
    )
    blocks = max(len(pres.target.generating_set), 1)
    entries = rank_b * rank_b * blocks
    if entries > budget:
        size = f"has over {budget} rows"
        if rank_b < cap:
            size = f"is {rank_b}x{blocks * rank_b} = {entries} entries"
        raise ResourceBudgetError(f"coinvariant matrix of R^(x){n} (x) M {size}, budget is {budget}")
    relation = magnus_sequence(pres).relation_module
    c_coeff = coeff
    for _ in range(n - 1):
        c_coeff = tensor_gmodule(relation, c_coeff)
    b_coeff = tensor_gmodule(relation, c_coeff)
    a = group_homology(coeff, 2 * n, budget=budget)
    b = coinvariants(b_coeff)
    c = h1_free(pres, c_coeff)
    d = group_homology(coeff, 2 * n - 1, budget=budget)
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

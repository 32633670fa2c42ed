import itertools
import math
import random
import time
import tracemalloc

import power_oracle
import pytest

from exacthom.abelian import ChainComplex, FgAbGroup, _equivalent_reduction, _tensor_product, homologies
from exacthom.errors import (
    InputError,
    InvariantViolation,
    ResourceBudgetError,
    UnsupportedFunctorError,
)
from exacthom.koszul import (
    DERIVE_BUDGET,
    DerivedResult,
    _builder,
    _term_rank,
    PresentationPair,
    check_budget,
    derived,
    derived_from_presentation,
    kos,
    kos_prime,
    power_of_group,
    presentation_from_group,
    random_padded_presentation,
    tensor_complex,
)
from exacthom.linalg import IntMatrix, SparseMatrix
from exacthom.powers import FunctorKind, PowerKind

SYM2 = FunctorKind(PowerKind.SYM, 2)
EXT2 = FunctorKind(PowerKind.EXT, 2)
TEN2 = FunctorKind(PowerKind.TENSOR, 2)


def test_presentation_pair_validation():
    PresentationPair(1, 1, IntMatrix.from_rows([[3]]))
    with pytest.raises(InputError):
        PresentationPair(1, 1, IntMatrix.from_rows([[0]]))  # not injective
    with pytest.raises(InputError):
        PresentationPair(2, 2, IntMatrix.from_rows([[1, 1], [1, 1]]))
    with pytest.raises(InputError):
        PresentationPair(1, 2, IntMatrix.from_rows([[3]]))  # shape mismatch
    # h_rank 0 is a legal presentation of a free group
    free = PresentationPair(0, 2, IntMatrix.zeros(2, 0))
    assert free.group() == FgAbGroup(2)
    # a dense inclusion is stored as its sparse columns
    dense = PresentationPair(2, 2, IntMatrix.from_rows([[2, 0], [1, 3]]))
    assert dense.inclusion == SparseMatrix(2, 2, ({0: 2, 1: 1}, {1: 3}))
    assert dense == PresentationPair(2, 2, dense.inclusion)


def test_presentation_from_group():
    p = presentation_from_group(FgAbGroup(0, (4,)))
    assert (p.h_rank, p.f_rank) == (1, 1)
    assert p.inclusion.entries == ((4,),)
    q = presentation_from_group(FgAbGroup(1, (3,)))
    assert (q.h_rank, q.f_rank) == (1, 2)
    assert q.inclusion.entries == ((3,), (0,))
    assert q.group() == FgAbGroup(1, (3,))
    # trivial group: 0 -> 0 -> 0
    t = presentation_from_group(FgAbGroup(0))
    assert (t.h_rank, t.f_rank) == (0, 0)
    assert t.group() == FgAbGroup(0)


def test_padding_preserves_group():
    for group in (FgAbGroup(0, (2,)), FgAbGroup(1, (2, 6)), FgAbGroup(2)):
        for padding in (0, 1, 2, 3):
            p = presentation_from_group(group, padding)
            assert (p.h_rank, p.f_rank) == (
                presentation_from_group(group).h_rank + padding,
                presentation_from_group(group).f_rank + padding,
            )
            assert p.group() == group
    with pytest.raises(InputError):
        presentation_from_group(FgAbGroup(0, (2,)), -1)


def test_random_padding_preserves_group():
    rng = random.Random("koszul-padding")
    for _ in range(30):
        group = FgAbGroup(rng.randint(0, 2), (2, 4) if rng.random() < 0.5 else (6,))
        p = random_padded_presentation(group, rng.randint(1, 3), rng)
        assert p.group() == group


def _dense_padded_columns(a, padding, rng):
    """The random padding written the old way, as a dense f x h grid filled
    column by column: the reference for the columns and the draw order."""
    t, f0 = len(a.invariant_factors), len(a.invariant_factors) + a.free_rank
    h, f = t + padding, f0 + padding
    grid = [[0] * h for _ in range(f)]
    for i, d in enumerate(a.invariant_factors):
        grid[i][i] = d
    for k in range(padding):
        grid[f0 + k][t + k] = 1
        for old in range(f0 + k):
            grid[old][t + k] = -rng.randint(-2, 2)
    return tuple({i: grid[i][j] for i in range(f) if grid[i][j]} for j in range(h))


def test_random_padding_keeps_its_columns():
    # frozen from the dense construction: the same seed gives the same
    # presentation, so seeded runs and benchmark jobs keep their inputs
    rng = random.Random("koszul-padding-pin")
    p = random_padded_presentation(FgAbGroup(1, (2, 4)), 3, rng)
    assert p.inclusion.columns == (
        {0: 2}, {1: 4}, {0: -2, 2: 1, 3: 1},
        {0: -2, 1: -1, 2: -2, 3: 1, 4: 1}, {0: 1, 1: -2, 3: 2, 4: 2, 5: 1},
    )
    assert rng.random() == 0.30336784985648435
    for seed in range(20):
        mine, ref = random.Random(seed), random.Random(seed)
        group = FgAbGroup(seed % 3, ((2, 4), (6,), ())[seed % 3])
        padding = seed % 5
        p = random_padded_presentation(group, padding, mine)
        assert p.inclusion.columns == _dense_padded_columns(group, padding, ref)
        assert [list(col) for col in p.inclusion.columns] == [
            sorted(col) for col in p.inclusion.columns
        ]
        assert mine.getstate() == ref.getstate()


def test_large_padding_builds_no_grid():
    # the standard padding writes at most 3 nonzeros per column; the dense
    # f x h grid took 22 s of CPU and a 140 MiB traced peak at padding 3000
    p = presentation_from_group(FgAbGroup(0, (2,)), 3000)
    assert max(map(len, p.inclusion.columns)) == 3
    sym1 = FunctorKind(PowerKind.SYM, 1)
    start = time.process_time()
    result = derived(sym1, FgAbGroup(0, (2,)), padding=3000)
    assert time.process_time() - start < 2.0
    assert result.values == (FgAbGroup(0, (2,)), FgAbGroup(0))
    tracemalloc.start()
    try:
        derived(sym1, FgAbGroup(0, (2,)), padding=3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak


def test_rank1_complex_shapes():
    p = PresentationPair(1, 1, IntMatrix.from_rows([[3]]))
    c = kos(p, 2)
    assert c.ranks == (1, 1, 0)
    assert c.differentials[0].entries == ((3,),)
    cp = kos_prime(p, 2)
    assert cp.ranks == (0, 1, 1)
    assert cp.differentials[1].entries == ((3,),)
    ct = tensor_complex(p, 2)
    assert ct.ranks == (1, 2, 1)
    assert ct.differentials[0].entries == ((3, 3),)
    assert ct.differentials[1].entries == ((-3,), (3,))


def test_kos_diagonal_inclusion():
    p = PresentationPair(2, 2, IntMatrix.diagonal([2, 3]))
    c = kos(p, 2)
    assert c.ranks == (3, 4, 1)
    assert c.differentials[0].entries == (
        (2, 0, 0, 0),
        (0, 2, 3, 0),
        (0, 0, 0, 3),
    )
    # d(h0 ^ h1) = h1 (x) 2f0 - h0 (x) 3f1
    assert c.differentials[1].entries == ((0,), (-3,), (2,), (0,))


def test_tensor_complex_ranks_formula():
    rng = random.Random("koszul-tensor-ranks")
    for _ in range(10):
        f_rank = rng.randint(1, 3)
        h_rank = rng.randint(0, f_rank)
        inclusion = IntMatrix.from_rows(
            [
                [(3 if i == j else 0) for j in range(h_rank)]
                for i in range(f_rank)
            ],
            cols=h_rank,
        )
        p = PresentationPair(h_rank, f_rank, inclusion)
        n = rng.randint(1, 3)
        c = tensor_complex(p, n)
        assert c.ranks == tuple(
            math.comb(n, k) * h_rank**k * f_rank ** (n - k) for k in range(n + 1)
        )


def _lex_tensor_complex(p, n):
    """The tensor power built from subset, stride and sign tables, with the
    p-subsets of tensor positions in lexicographic order: the reference
    that tensor_complex must match up to the order of its blocks."""
    h, f = p.h_rank, p.f_rank
    iota = p.inclusion.entries  # the dense view is built on every read
    iota_sparse = [[(t, iota[t][c]) for t in range(f) if iota[t][c]] for c in range(h)]

    # layouts[k]: subset -> (block offset, per-position strides); ranks[k] total.
    layouts = []
    ranks = []
    for k in range(n + 1):
        table = {}
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

    diffs = []
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


def _colex_order(n, k, block_size):
    """Lexicographic basis positions listed in the colexicographic block
    order of the k-subsets of n tensor positions."""
    subsets = list(itertools.combinations(range(n), k))
    start = {s: i * block_size for i, s in enumerate(subsets)}
    return [
        start[s] + w
        for s in sorted(subsets, key=lambda s: s[::-1])
        for w in range(block_size)
    ]


def _tensor_oracle_cases():
    for padding in (0, 1, 2):
        yield f"Z+Z/2-pad{padding}", presentation_from_group(FgAbGroup(1, (2,)), padding)
    rng = random.Random("koszul-tensor-oracle")
    yield "Z/2+Z/4-random1", random_padded_presentation(FgAbGroup(0, (2, 4)), 1, rng)
    yield "Z+Z/3-random2", random_padded_presentation(FgAbGroup(1, (3,)), 2, rng)
    yield "free-h0", presentation_from_group(FgAbGroup(2))
    yield "zero-group", presentation_from_group(FgAbGroup(0))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("pres", [pytest.param(p, id=name) for name, p in _tensor_oracle_cases()])
def test_tensor_complex_matches_lex_oracle(pres, n):
    got = tensor_complex(pres, n)
    want = _lex_tensor_complex(pres, n)
    assert got.ranks == want.ranks
    h, f = pres.h_rank, pres.f_rank
    orders = [_colex_order(n, k, h**k * f ** (n - k)) for k in range(n + 1)]
    for k, (d_got, d_want) in enumerate(zip(got.differentials, want.differentials)):
        rows, cols = orders[k], orders[k + 1]
        want_rows = d_want.entries  # the dense view is built on every read
        permuted = tuple(tuple(want_rows[i][j] for j in cols) for i in rows)
        assert d_got.entries == permuted, f"differential {k}"


def test_derived_cyclic_ground_truth():
    # rank-1 oracle: Kos(Z --m--> Z) for n = 2 is Z --m--> Z in degrees 1, 0
    # (sym), degrees 2, 1 (ext), and Z -(m,-m)-> Z^2 -(m m)-> Z (tensor)
    for m in (2, 3, 4, 6):
        zm = FgAbGroup(0, (m,))
        assert derived(SYM2, zm).values == (zm, FgAbGroup(0), FgAbGroup(0))
        assert derived(EXT2, zm).values == (FgAbGroup(0), zm, FgAbGroup(0))
        assert derived(TEN2, zm).values == (zm, zm, FgAbGroup(0))


def test_derived_free_inputs():
    for r in (0, 1, 2, 3):
        free = FgAbGroup(r)
        for kind in (PowerKind.SYM, PowerKind.EXT, PowerKind.TENSOR):
            for n in (1, 2, 3):
                f = FunctorKind(kind, n)
                values = derived(f, free).values
                assert values[0] == power_of_group(f, free)
                assert all(v == FgAbGroup(0) for v in values[1:])


def test_derived_degree_one_is_identity():
    for group in (FgAbGroup(0, (6,)), FgAbGroup(2, (2,)), FgAbGroup(0)):
        for kind in (PowerKind.SYM, PowerKind.EXT, PowerKind.TENSOR):
            res = derived(FunctorKind(kind, 1), group)
            assert res.values == (group, FgAbGroup(0))


def test_power_of_group_frozen():
    a = FgAbGroup(0, (2, 4))
    assert power_of_group(SYM2, a) == FgAbGroup(0, (2, 2, 4))
    assert power_of_group(TEN2, a) == FgAbGroup(0, (2, 2, 2, 4))
    assert power_of_group(EXT2, a) == FgAbGroup(0, (2,))
    b = FgAbGroup(1, (3,))
    # words with a free letter keep a free factor: gcd(0, d) = d
    assert power_of_group(SYM2, b) == FgAbGroup(1, (3, 3))
    assert power_of_group(EXT2, b) == FgAbGroup(0, (3,))
    assert power_of_group(TEN2, b) == FgAbGroup(1, (3, 3, 3))
    with pytest.raises(UnsupportedFunctorError):
        power_of_group(FunctorKind(PowerKind.DIV, 2), a)


_POWER_GROUPS = [
    FgAbGroup(0),
    FgAbGroup(0, (2,)),
    FgAbGroup(0, (6,)),
    FgAbGroup(0, (2, 2)),
    FgAbGroup(0, (2, 4, 12)),
    FgAbGroup(1),
    FgAbGroup(2),
    FgAbGroup(1, (3,)),
    FgAbGroup(2, (2, 4)),
]


@pytest.mark.parametrize("group", _POWER_GROUPS, ids=str)
def test_power_of_group_counts_what_the_listed_basis_sums(group):
    for kind in (PowerKind.TENSOR, PowerKind.SYM, PowerKind.EXT):
        for n in range(1, 6):
            f = FunctorKind(kind, n)
            assert power_of_group(f, group) == power_oracle.power_of_group(f, group), f


def test_power_of_group_lists_no_basis():
    # listing the 8001 monomials of Sym^8000(Z^2), n letters each, peaked
    # at 490 MiB; derive --functor sym --n 100000 --group Z^2 ran out of
    # memory there, in the check of L_0
    tracemalloc.start()
    try:
        got = power_of_group(FunctorKind(PowerKind.SYM, 8000), FgAbGroup(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == FgAbGroup(8001)
    assert peak < 2**20, peak


def test_derived_div_unsupported():
    with pytest.raises(UnsupportedFunctorError):
        derived(FunctorKind(PowerKind.DIV, 2), FgAbGroup(0, (2,)))


def test_derived_mixed_group():
    a = FgAbGroup(0, (2, 4))
    res = derived(TEN2, a)
    # L_1 tensor^2 = Tor terms: Tor(Z/2,Z/2) + Tor(Z/2,Z/4) x2 + Tor(Z/4,Z/4)
    assert res.values[1] == FgAbGroup(0, (2, 2, 2, 4))
    assert res.values[2] == FgAbGroup(0)


def test_presentation_independence_spot():
    a = FgAbGroup(0, (4,))
    for padding in (0, 1, 2):
        p = presentation_from_group(a, padding)
        assert derived_from_presentation(EXT2, p).values == (
            FgAbGroup(0),
            a,
            FgAbGroup(0),
        )


def _fold_oracle_cases():
    # minimal torsion presentations: no unit, so every pivot a reduction
    # cancels is a divisor and comes back as a block Z --x--> Z
    for orders in ((2, 4), (3, 9), (2, 2, 2)):
        name = "+".join(f"Z/{d}" for d in orders)
        yield f"{name}-minimal", presentation_from_group(FgAbGroup(0, orders))
    for padding in (1, 2, 3):
        yield f"Z/2+Z/4-pad{padding}", presentation_from_group(FgAbGroup(0, (2, 4)), padding)
    yield "Z/3+Z/9-pad1", presentation_from_group(FgAbGroup(0, (3, 9)), 1)
    rng = random.Random("koszul-fold-oracle")
    yield "Z/2+Z/4-random2", random_padded_presentation(FgAbGroup(0, (2, 4)), 2, rng)
    yield "Z/3+Z/9-random3", random_padded_presentation(FgAbGroup(0, (3, 9)), 3, rng)
    yield "Z+Z/3-random2", random_padded_presentation(FgAbGroup(1, (3,)), 2, rng)
    yield "Z+Z/2-minimal", presentation_from_group(FgAbGroup(1, (2,)))
    yield "Z^2+Z/6-pad1", presentation_from_group(FgAbGroup(2, (6,)), 1)
    yield "zero-group", presentation_from_group(FgAbGroup(0))
    yield "zero-group-pad2", presentation_from_group(FgAbGroup(0), 2)
    yield "free-h0", presentation_from_group(FgAbGroup(2))


_FOLD_CASES = [pytest.param(p, id=name) for name, p in _fold_oracle_cases()]


@pytest.mark.parametrize("pres", _FOLD_CASES)
def test_tensor_route_matches_the_full_complex(pres):
    # derive folds the factors over reduced complexes; the oracle reduces
    # the whole tensor power once
    for n in range(1, 5):
        want = homologies(tensor_complex(pres, n))
        assert derived_from_presentation(FunctorKind.parse("tensor", n), pres).values == want, n


@pytest.mark.parametrize("pres", _FOLD_CASES)
def test_equivalent_reduction_keeps_the_tensor_product(pres):
    # one fold step on every complex, units or none: reducing C and
    # putting its divisor blocks back leaves the homology of C (x) (F <- H)
    two_term = ((pres.f_rank, pres.h_rank), (pres.inclusion,))
    for k in range(1, 4):
        c = tensor_complex(pres, k)
        ranks, diffs = _equivalent_reduction(c.ranks, c.differentials)
        folded = ChainComplex(0, *_tensor_product(ranks, diffs, *two_term))
        assert homologies(ChainComplex(0, ranks, diffs)) == homologies(c), k
        assert homologies(folded) == homologies(tensor_complex(pres, k + 1)), k


def test_derived_tensor_cube_dense_inclusions():
    """Dense non-diagonal inclusions whose tensor-cube differentials once
    drove elimination into exponential entry growth; the values must still
    match the minimal presentation of the same group."""
    ten3 = FunctorKind(PowerKind.TENSOR, 3)
    cases = [
        (
            [[2, 0, 2, -2], [0, 4, 2, -1], [0, 0, 1, 1], [0, 0, 0, 1]],
            FgAbGroup(0, (2, 4)),
            (
                FgAbGroup(0, (2,) * 7 + (4,)),
                FgAbGroup(0, (2,) * 14 + (4, 4)),
                FgAbGroup(0, (2,) * 7 + (4,)),
                FgAbGroup(0),
            ),
        ),
        (
            [[3, -2, 1], [0, 1, 1], [0, 1, -2], [0, 0, 1]],
            FgAbGroup(1, (3,)),
            (
                FgAbGroup(1, (3,) * 7),
                FgAbGroup(0, (3,) * 5),
                FgAbGroup(0, (3,)),
                FgAbGroup(0),
            ),
        ),
    ]
    for rows, group, expected in cases:
        inclusion = IntMatrix.from_rows(rows)
        pres = PresentationPair(inclusion.cols, inclusion.rows, inclusion)
        assert pres.group() == group
        assert derived_from_presentation(ten3, pres).values == expected
        minimal = presentation_from_group(group)
        assert derived_from_presentation(ten3, minimal).values == expected


def test_builder_dispatch():
    assert _builder(SYM2) is kos
    assert _builder(EXT2) is kos_prime
    assert _builder(TEN2) is tensor_complex
    with pytest.raises(UnsupportedFunctorError):
        _builder(FunctorKind(PowerKind.DIV, 2))


def test_derived_result_validation():
    a = FgAbGroup(0, (2,))
    with pytest.raises(InputError):
        DerivedResult(SYM2, a, (a,))  # wrong length: needs n + 1 entries
    with pytest.raises(InvariantViolation):
        DerivedResult(SYM2, a, (FgAbGroup(0, (4,)), FgAbGroup(0), FgAbGroup(0)))
    ok = DerivedResult(SYM2, a, [a, FgAbGroup(0), FgAbGroup(0)])
    assert isinstance(ok.values, tuple)


@pytest.mark.parametrize("kind", ["sym", "ext", "tensor"])
def test_check_budget_sits_on_the_built_sizes(kind):
    # the least budget that passes is the largest term rank, matrix size or
    # term count of what derived builds
    for group in (FgAbGroup(0, (2, 4)), FgAbGroup(1, (3,)), FgAbGroup(2), FgAbGroup(0)):
        for padding in (0, 2):
            for n in (1, 2, 3):
                f = FunctorKind.parse(kind, n)
                p = presentation_from_group(group, padding)
                r = _builder(f)(p, n).ranks
                need = max(
                    n + 1, p.f_rank, p.h_rank, p.f_rank * p.h_rank, *r,
                    *(a * b for a, b in zip(r, r[1:])),
                )
                check_budget(f, group, padding, need)
                with pytest.raises(ResourceBudgetError):
                    check_budget(f, group, padding, need - 1)


def test_check_budget_default_keeps_what_builds():
    # tensor^4 of Z/2 + Z/4 at padding 2: ranks 256 C(4, k), d_2 1024x1536
    check_budget(FunctorKind(PowerKind.TENSOR, 4), FgAbGroup(0, (2, 4)), 2)
    with pytest.raises(ResourceBudgetError, match="presentation Z\\^0 -> Z\\^9223372036854775807"):
        check_budget(EXT2, FgAbGroup(2**63 - 1), 0)
    # tensor^40 of Z/2 + Z/4: 2^40 words in degree 0
    with pytest.raises(ResourceBudgetError, match=f"term 0 has rank over the budget of {DERIVE_BUDGET}"):
        check_budget(FunctorKind(PowerKind.TENSOR, 40), FgAbGroup(0, (2, 4)), 0)


@pytest.mark.parametrize("kind", [PowerKind.SYM, PowerKind.EXT, PowerKind.TENSOR])
def test_term_rank_is_the_capped_formula(kind):
    def comb(a, b):  # Sym^0 of Z^0 is Z: C(-1, 0) = 1
        return 1 if b == 0 else math.comb(max(a, 0), b)

    exact = {
        PowerKind.SYM: lambda n, k, h, f: comb(h, k) * comb(f + n - k - 1, n - k),
        PowerKind.EXT: lambda n, k, h, f: comb(h + k - 1, k) * comb(f, n - k),
        PowerKind.TENSOR: lambda n, k, h, f: math.comb(n, k) * h**k * f ** (n - k),
    }[kind]
    for cap in (1, 2, 1000, 2**36 + 1):
        for n in (1, 2, 7, 60):
            for h, f in ((0, 0), (0, 3), (1, 1), (1, 2), (2, 3), (5, 9)):
                for k in range(n + 1):
                    assert _term_rank(kind, n, k, h, f, cap) == min(exact(n, k, h, f), cap)


@pytest.mark.parametrize("kind", ["sym", "ext", "tensor"])
def test_check_budget_visits_every_nonzero_term(kind, monkeypatch):
    import exacthom.koszul as koszul

    term_rank, seen = koszul._term_rank, []
    monkeypatch.setattr(koszul, "_term_rank", lambda *args: seen.append(args[2]) or term_rank(*args))
    for group in (FgAbGroup(0), FgAbGroup(1), FgAbGroup(3), FgAbGroup(1, (2,)), FgAbGroup(0, (2, 4))):
        for padding in (0, 1, 3):
            for n in (1, 2, 4, 6):
                f = FunctorKind.parse(kind, n)
                h, g = koszul._padded_ranks(group, padding)
                seen.clear()
                check_budget(f, group, padding, 2**80)
                nonzero = [k for k in range(n + 1) if term_rank(f.kind, n, k, h, g, 2**80)]
                assert set(nonzero) <= set(seen) and seen == sorted(seen)


@pytest.mark.parametrize("kind", ["sym", "ext", "tensor"])
def test_check_budget_of_a_huge_power_over_z_is_quick(kind):
    # over Z only degree 0 has a term; visiting all 10^6 + 1 degrees took
    # 0.5 s (ext) to 3.3 s (tensor) of CPU
    start = time.process_time()
    check_budget(FunctorKind.parse(kind, 10**6), FgAbGroup(1), 0)
    assert time.process_time() - start < 0.1


def test_check_budget_refuses_before_building():
    huge = FgAbGroup(2**63 - 1)
    with pytest.raises(ResourceBudgetError, match="presentation Z\\^0 -> Z\\^9223372036854775807"):
        check_budget(EXT2, huge, 0, 10**6)
    # tensor^40 of Z/2 + Z/4: 2^40 words in degree 0, never formed
    with pytest.raises(ResourceBudgetError, match="tensor\\^40 complex"):
        check_budget(FunctorKind(PowerKind.TENSOR, 40), FgAbGroup(0, (2, 4)), 0, 10**6)
    with pytest.raises(ResourceBudgetError, match="10000000001 terms"):
        check_budget(FunctorKind(PowerKind.SYM, 10**10), FgAbGroup(0, (2,)), 0, 10**6)
    # Sym^3 over Z^2 -> Z^3 (Z/2 + Z/4 + Z at padding 0): ranks 10, 12, 3, 0
    with pytest.raises(ResourceBudgetError, match="d_1 is 10x12 = 120 entries, budget is 119"):
        check_budget(FunctorKind(PowerKind.SYM, 3), FgAbGroup(1, (2, 4)), 0, 119)
    with pytest.raises(UnsupportedFunctorError):
        check_budget(FunctorKind(PowerKind.DIV, 2), FgAbGroup(0, (2,)), 0, 10**6)
    with pytest.raises(InputError):
        check_budget(SYM2, FgAbGroup(0, (2,)), -1, 10**6)


@pytest.mark.parametrize("kind, n", [("sym", 10000), ("ext", 3000)])
def test_high_powers_of_a_cyclic_group_stay_small(kind, n):
    # Over Z --2--> Z only the two top terms have rank, so only their bases
    # are listed; listing all n + 1 took 608 MiB for sym^10000 (resident)
    # and a 36 MiB traced peak for ext^3000.
    tracemalloc.start()
    try:
        result = derived(FunctorKind.parse(kind, n), FgAbGroup(0, (2,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    top = 0 if kind == "sym" else n - 1  # the degree of Z/2
    assert result.values == tuple(FgAbGroup(0, (2,) if k == top else ()) for k in range(n + 1))


def test_tensor_power_of_a_free_group_is_linear_in_n():
    # with H = 0 only F^(x)n in degree 0 is nonzero. Folding the n factors
    # through _tensor_product took 8.0 s of CPU at n = 2000 over Z and grew
    # as n^2; the small cases must still equal that fold term for term
    for f in range(3):
        p = presentation_from_group(FgAbGroup(f))
        two_term = ((p.f_rank, p.h_rank), (p.inclusion,))
        ranks, diffs = two_term
        for n in range(1, 5):
            assert tensor_complex(p, n) == ChainComplex(0, ranks, diffs)
            ranks, diffs = _tensor_product(ranks, diffs, *two_term)
    start = time.process_time()
    result = derived(FunctorKind.parse("tensor", 100000), FgAbGroup(1))
    assert time.process_time() - start < 3
    assert result.values == (FgAbGroup(1),) + (FgAbGroup(0),) * 100000


def test_padded_tensor_power_reduces_without_filling_in():
    # The reduction takes, among a row's units, the one whose column is
    # shortest. Taking the row's first unit instead filled the Schur updates
    # of this full complex to a 28 MiB traced peak; the shortest column
    # keeps it near 12 MiB. Derive folds this power over smaller products,
    # so the full complex is reduced here directly.
    pres = presentation_from_group(FgAbGroup(0, (2, 2)), 3)
    tracemalloc.start()
    try:
        values = homologies(tensor_complex(pres, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    # Künneth: L_i of the fourth tensor power of (Z/2)^2 is (Z/2)^(16 * C(3, i))
    assert values == tuple(FgAbGroup(0, (2,) * 16 * math.comb(3, i)) for i in range(5))


def test_padded_tensor_sixth_power_folds_small():
    # Folded over reduced complexes this takes about 0.05 s of CPU and a
    # 6 MiB traced peak. Reducing the full complex of rank 8^6 once took
    # 53.8 s of CPU and 611 MiB of resident memory.
    f = FunctorKind.parse("tensor", 6)
    group = FgAbGroup(0, (3, 9))
    start = time.process_time()
    derived(f, group, padding=2)
    assert time.process_time() - start < 2
    tracemalloc.start()
    try:
        result = derived(f, group, padding=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert result.values == derived(f, group, padding=0).values

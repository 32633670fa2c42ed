import hashlib
import itertools
import random

import pytest
from bar_oracle import full_bar_differential

import exacthom.abelian as abelian
from exacthom.abelian import (
    ChainComplex,
    FgAbGroup,
    _reduce,
    canonical_form,
    from_cyclic_orders,
    homologies,
    homology,
    homology_at,
)
from exacthom.errors import ComplexValidityError, InputError
from exacthom.grouphom import (
    FiniteGroupTable,
    GModuleFree,
    _bar_differential,
    augmentation_ideal,
    group_ring,
)
from exacthom.koszul import (
    PresentationPair,
    kos,
    kos_prime,
    presentation_from_group,
    random_padded_presentation,
    tensor_complex,
)
from exacthom.linalg import IntMatrix, SparseMatrix, kernel_basis, smith_diagonal, solve
from exacthom.verify import random_unimodular


def test_group_validation():
    with pytest.raises(InputError):
        FgAbGroup(-1)
    with pytest.raises(InputError):
        FgAbGroup(0, (1,))
    with pytest.raises(InputError):
        FgAbGroup(0, (2, 3))  # 2 does not divide 3
    with pytest.raises(InputError):
        FgAbGroup(0, (0,))
    assert FgAbGroup(0, (2, 4, 4)).invariant_factors == (2, 4, 4)


def test_group_str():
    assert str(FgAbGroup(0)) == "0"
    assert str(FgAbGroup(1)) == "Z"
    assert str(FgAbGroup(2)) == "Z^2"
    assert str(FgAbGroup(1, (2,))) == "Z + Z/2"
    assert str(FgAbGroup(0, (2, 4))) == "Z/2 + Z/4"
    big = 10**5000  # past Python's 4300-digit int -> str limit
    assert str(FgAbGroup(1, (big,))) == "Z + Z/1" + "0" * 5000
    assert str(IntMatrix.from_rows([[big, -1]])) == "[1" + "0" * 5000 + "  -1]"


def test_group_order():
    assert FgAbGroup(0).order() == 1
    assert FgAbGroup(0, (2, 4)).order() == 8
    assert FgAbGroup(1, (3,)).order() is None
    assert FgAbGroup(1, (3,)).torsion_order() == 3
    assert FgAbGroup(0).is_trivial()
    assert not FgAbGroup(1).is_trivial()


def test_iso_is_equality():
    assert FgAbGroup(0, (2, 4)) == FgAbGroup(0, (2, 4))
    assert FgAbGroup(0, (2, 4)) != FgAbGroup(0, (8,))
    assert FgAbGroup(1) != FgAbGroup(0, (2,))


def test_canonical_form_frozen():
    assert canonical_form(IntMatrix.diagonal([2, 3])) == FgAbGroup(0, (6,))
    assert canonical_form(IntMatrix.diagonal([1, 1])) == FgAbGroup(0)
    assert canonical_form(IntMatrix.zeros(2, 0)) == FgAbGroup(2)
    assert canonical_form(IntMatrix.from_rows([[2, 0], [0, 0]])) == FgAbGroup(1, (2,))
    assert canonical_form(IntMatrix.from_rows([[2, 4], [6, 8]])) == FgAbGroup(0, (2, 4))
    # the same matrices given as sparse columns
    assert canonical_form(SparseMatrix(2, 2, ({0: 2, 1: 6}, {0: 4, 1: 8}))) == FgAbGroup(0, (2, 4))
    assert canonical_form(SparseMatrix(2, 0, ())) == FgAbGroup(2)


def test_from_cyclic_orders():
    assert from_cyclic_orders([2, 3]) == FgAbGroup(0, (6,))
    assert from_cyclic_orders([4, 6]) == FgAbGroup(0, (2, 12))
    assert from_cyclic_orders([0, 4, 6]) == FgAbGroup(1, (2, 12))
    assert from_cyclic_orders([1, 1]) == FgAbGroup(0)
    assert from_cyclic_orders([]) == FgAbGroup(0)
    with pytest.raises(InputError):
        from_cyclic_orders([-2])


def test_canonical_form_unimodular_invariance():
    rng = random.Random("abelian-invariance")
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        p = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)], cols=cols
        )
        u = random_unimodular(rows, rng)
        w = random_unimodular(cols, rng)
        assert canonical_form(p) == canonical_form(u @ p @ w)


def test_chain_complex_validation():
    d = IntMatrix.from_rows([[2]])
    c = ChainComplex(0, (1, 1), (d,))
    assert c.top_degree == 0 + 1
    with pytest.raises(InputError):
        ChainComplex(0, (1, 1), ())  # missing differential
    with pytest.raises(ComplexValidityError):
        ChainComplex(0, (1, 2), (d,))  # shape mismatch
    bad = (IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]]))
    with pytest.raises(ComplexValidityError):
        ChainComplex(0, (1, 1, 1), bad)  # d.d = 1 != 0


def test_homology_mod2_complex():
    # 0 -> Z --2--> Z -> 0
    c = ChainComplex(0, (1, 1), (IntMatrix.from_rows([[2]]),))
    assert homology(c, 0) == FgAbGroup(0, (2,))
    assert homology(c, 1) == FgAbGroup(0)
    with pytest.raises(InputError):
        homology(c, 2)
    with pytest.raises(InputError):
        homology(c, -1)


def test_homology_circle():
    # two vertices, two edges glued into a loop
    d1 = IntMatrix.from_rows([[-1, -1], [1, 1]])
    c = ChainComplex(0, (2, 2), (d1,))
    assert homology(c, 0) == FgAbGroup(1)
    assert homology(c, 1) == FgAbGroup(1)


def test_homology_at_validation():
    with pytest.raises(ComplexValidityError):
        homology_at(IntMatrix.identity(2), IntMatrix.zeros(1, 3))
    with pytest.raises(ComplexValidityError):
        homology_at(IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]]))


def test_homology_shifted_degrees():
    d = IntMatrix.from_rows([[3]])
    c = ChainComplex(-2, (1, 1), (d,))
    assert c.top_degree == -1
    assert homology(c, -2) == FgAbGroup(0, (3,))
    assert homology(c, -1) == FgAbGroup(0)


def test_euler_characteristic():
    # chi from ranks equals chi from homology on random valid complexes
    rng = random.Random("abelian-euler")
    for _ in range(25):
        r0, r1 = rng.randint(1, 4), rng.randint(1, 4)
        d1 = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(r1)] for _ in range(r0)], cols=r1
        )
        k = kernel_basis(d1)
        r2 = rng.randint(1, 3)
        mix = IntMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(r2)] for _ in range(k.cols)], cols=r2
        )
        d2 = k @ mix
        c = ChainComplex(0, (r0, r1, r2), (d1, d2))
        chi_ranks = r0 - r1 + r2
        chi_hom = sum(
            (-1) ** i * homology(c, i).free_rank for i in range(3)
        )
        assert chi_ranks == chi_hom


def _smith_rank(m: IntMatrix) -> int:
    return sum(1 for x in smith_diagonal(m) if x)


def _smith_cokernel(m: IntMatrix) -> FgAbGroup:
    """The direct route, kept as the oracle: one dense Smith diagonal of m,
    with no reduction."""
    diag = smith_diagonal(m)
    return FgAbGroup(m.rows - sum(1 for x in diag if x), tuple(x for x in diag if x > 1))


def _dense_homology(d_in: IntMatrix, d_out: IntMatrix) -> FgAbGroup:
    """The dense two-Smith route, kept as the oracle: the cokernel of d_in
    with its free rank cut by rank(d_out)."""
    total = _smith_cokernel(d_in)
    return FgAbGroup(total.free_rank - _smith_rank(d_out), total.invariant_factors)


def _two_term_matrices() -> dict[str, IntMatrix]:
    """Zero-dimensional, random (with units, mostly tall so that many are
    injective, plus two rank-deficient products) and unit-free matrices."""
    rng = random.Random("two-term-oracle")

    def grid(rows, cols, values):
        return IntMatrix.from_rows(
            [[rng.choice(values) for _ in range(cols)] for _ in range(rows)], cols=cols
        )

    cases = {f"empty-{r}x{c}": IntMatrix.zeros(r, c) for r, c in ((0, 0), (0, 3), (3, 0))}
    for k in range(8):
        cols = rng.randint(1, 5)
        rows = rng.randint(cols - 1, 7) or 1
        cases[f"random-{k}"] = grid(rows, cols, (0, 0, 1, -1, 2, -3, 5))
    for k in range(2):
        cases[f"deficient-{k}"] = grid(6, 2, (1, -1, 2, 3)) @ grid(2, 4, (1, -2, 3))
    for k in range(4):
        cols = rng.randint(1, 5)
        cases[f"unit-free-{k}"] = grid(rng.randint(cols, 7), cols, (0, 0, 2, -2, 3, 4, -6, 9))
    # no entry divides both its row and its column, at once or once the unit
    # in the last one has cancelled, so _reduce leaves the whole remainder to
    # smith_diagonal
    for k, m in enumerate(([[2, 3], [3, 2]], [[6, 10, 15]], [[1, 2, 0], [0, 4, 6], [3, 0, 9]])):
        cases[f"no-pivot-{k}"] = IntMatrix.from_rows(m)
    return cases


_TWO_TERM = _two_term_matrices()


@pytest.mark.parametrize("name", sorted(_TWO_TERM))
def test_presentation_pair_matches_smith_oracle(name):
    m = _TWO_TERM[name]
    if _smith_rank(m) < m.cols:
        with pytest.raises(InputError):
            PresentationPair(m.cols, m.rows, m)
    else:
        assert PresentationPair(m.cols, m.rows, m).group() == _smith_cokernel(m)


_ORDER_LISTS = {
    "empty": [],
    "zeros": [0, 0, 0],
    "ones": [1, 1],
    "zeros-and-ones": [1, 0, 1, 0, 4],
    "coprime": [2, 3, 5, 7],
    "shared-primes": [4, 6, 9, 8, 12, 27, 10],
    "descending": [8, 4, 2, 2],
    "past-4300-digits": [10**5000, 6, 2 * 10**4400 + 2, 0, 1, 15 * 10**4301],
    "random": random.Random("orders").choices((0, 1, 2, 3, 4, 6, 9, 12, 25), k=12),
}


@pytest.mark.parametrize("name", sorted(_ORDER_LISTS))
def test_from_cyclic_orders_matches_smith_oracle(name):
    orders = _ORDER_LISTS[name]
    assert from_cyclic_orders(orders) == _smith_cokernel(IntMatrix.diagonal(orders))


def _koszul_case(builder, group, n, padding):
    return lambda: builder(presentation_from_group(group, padding), n)


def _random_padded_case(builder, group, n, seed):
    def make():
        rng = random.Random(f"oracle-{seed}")
        return builder(random_padded_presentation(group, rng.randint(1, 3), rng), n)
    return make


def _s3() -> FiniteGroupTable:
    """The six permutations of three points, identity first; gh applies h first."""
    perms = list(itertools.permutations(range(3)))
    return FiniteGroupTable.from_mult(
        [[perms.index(tuple(g[h[i]] for i in range(3))) for h in perms] for g in perms]
    )


_V4 = FiniteGroupTable.from_mult([[i ^ j for j in range(4)] for i in range(4)])  # Z2 x Z2
_S3 = _s3()
_COEFFICIENTS = {
    "trivial": lambda g: GModuleFree.trivial(g, 1),
    "augmentation": augmentation_ideal,
    "regular": group_ring,
}


def _bar_case(table, coeff, i, build=full_bar_differential):
    """The full (or, with build=_bar_differential, the normalized) bar
    complex from degree i - 1 to i + 1 (from 0 when i = 0)."""
    def make():
        m = _COEFFICIENTS[coeff](table)
        diffs = tuple(build(m, k) for k in range(max(i, 1), i + 2))
        ranks = (diffs[0].rows,) + tuple(d.cols for d in diffs)
        return ChainComplex(max(i - 1, 0), ranks, diffs)
    return make


def _random_case(kind):
    """Three-term complexes with d(d(x)) = 0: generic, with no unit entry
    (every entry even, so only divisor pivots cancel), or acyclic with unit
    pivots (everything cancels)."""
    def make():
        rng = random.Random(f"oracle-random-{kind}")
        if kind == "acyclic":
            a, b = 3, 4
            w = random_unimodular(a + b, rng, steps=4)
            w_inv = solve(w, IntMatrix.identity(a + b))
            d1 = IntMatrix.from_rows(w.entries[:a], cols=a + b)
            d2 = w_inv @ IntMatrix.from_rows(
                [[int(i == j + a) for j in range(b)] for i in range(a + b)], cols=b
            )
            return ChainComplex(0, (a, a + b, b), (d1, d2))
        scale = 2 if kind == "no-unit" else 1
        r0, r1, r2 = 4, 6, 4
        d1 = IntMatrix.from_rows(
            [[scale * rng.randint(-3, 3) for _ in range(r1)] for _ in range(r0)], cols=r1
        )
        k = kernel_basis(d1)
        mix = IntMatrix.from_rows(
            [[scale * rng.randint(-2, 2) for _ in range(r2)] for _ in range(k.cols)], cols=r2
        )
        return ChainComplex(0, (r0, r1, r2), (d1, k @ mix))
    return make


def _random_sparse_case(seed):
    """Four terms of ranks 10-12: five blocks Z --x--> Z (x in 1, 2, 3, 4, 6)
    per differential and free summands, each term's basis then changed by
    4 * rank elementary operations. In every seed's reduction the Schur
    updates both lengthen rows and shorten them, so rows move up and down
    the length buckets."""
    def make():
        rng = random.Random(f"oracle-sparse-{seed}")
        ranks = [rng.randint(10, 12) for _ in range(4)]
        unpaired = [rng.sample(range(r), r) for r in ranks]
        diffs = []
        for p in range(3):  # d_p maps term p + 1 to term p
            d = [[0] * ranks[p + 1] for _ in range(ranks[p])]
            for _ in range(5):
                d[unpaired[p].pop()][unpaired[p + 1].pop()] = rng.choice((1, 2, 3, 4, 6))
            diffs.append(IntMatrix.from_rows(d, cols=ranks[p + 1]))
        change = [random_unimodular(r, rng, steps=4 * r) for r in ranks]
        return ChainComplex(0, tuple(ranks), tuple(
            change[p] @ d @ solve(change[p + 1], IntMatrix.identity(ranks[p + 1]))
            for p, d in enumerate(diffs)
        ))
    return make


_Z2_Z4 = FgAbGroup(0, (2, 4))
_Z3_Z3 = FgAbGroup(0, (3, 3))
_Z_Z2 = FgAbGroup(1, (2,))

_ORACLE_CASES = {
    **{
        f"{b.__name__}-{str(g).replace(' ', '')}-n{n}-pad{pad}": _koszul_case(b, g, n, pad)
        for b in (tensor_complex, kos, kos_prime)
        for g in (_Z2_Z4, _Z3_Z3, _Z_Z2)
        for n, pad in ((2, 0), (2, 1), (2, 2), (3, 0))
    },
    **{
        f"random-padded-{b.__name__}-{str(g).replace(' ', '')}": _random_padded_case(b, g, 2, seed)
        for seed, (b, g) in enumerate(
            ((tensor_complex, _Z2_Z4), (kos, _Z_Z2), (kos_prime, _Z3_Z3))
        )
    },
    **{
        f"bar-{name}-{coeff}-H{i}": _bar_case(table, coeff, i)
        for name, table in (("V4", _V4), ("S3", _S3))
        for coeff in _COEFFICIENTS
        for i in (0, 1)
    },
    "bar-V4-trivial-H2": _bar_case(_V4, "trivial", 2),
    "bar-S3-trivial-H2": _bar_case(_S3, "trivial", 2),
    **{
        f"normalized-bar-{name}-{coeff}-H{i}": _bar_case(table, coeff, i, _bar_differential)
        for name, table in (("V4", _V4), ("S3", _S3))
        for coeff in _COEFFICIENTS
        for i in (0, 1, 2)
    },
    # H_0 is the cokernel that canonical_form returns, H_1 the kernel rank
    # that h1_free reads
    **{
        f"two-term-{name}": lambda m=m: ChainComplex(0, (m.rows, m.cols), (m,))
        for name, m in _TWO_TERM.items()
    },
    **{f"random-{kind}": _random_case(kind) for kind in ("generic", "no-unit", "acyclic")},
    **{f"random-sparse-{seed}": _random_sparse_case(seed) for seed in range(4)},
    # no entry divides both its row and its column, so nothing cancels
    "no-pivot": lambda: ChainComplex(0, (1, 3, 3), (
        IntMatrix.from_rows([[6, 10, 15]]),
        IntMatrix.from_rows([[5, 5, 0], [-3, 0, 3], [0, -2, -2]]),
    )),
    # row 0 holds only the divisor pivot 2 and is shorter than row 1, the
    # only row with a unit, so 2 is cancelled first
    "divisor-before-unit": lambda: ChainComplex(0, (2, 3, 1), (
        IntMatrix.from_rows([[2, 0, 0], [4, 1, 1]]),
        IntMatrix.from_rows([[0], [2], [-2]]),
    )),
    # row 0's first unit has a column of three nonzeros, its second a column
    # of one: that one is taken, and rows 1 and 2 are left as they were
    "short-column-unit": lambda: ChainComplex(0, (3, 3), (
        IntMatrix.from_rows([[1, 1, 0], [2, 0, 3], [4, 0, 5]]),
    )),
    # the first least entry of each row of d_0 fails its column test, though
    # the 2 at (0, 1) would divide its row and column; d_0 goes to the Smith
    # diagonal once d_1's pivot has dropped column 0
    "missed-divisor": lambda: ChainComplex(0, (2, 3, 1), (
        IntMatrix.from_rows([[2, 2, 0], [3, 0, 3]]),
        IntMatrix.from_rows([[2], [-2], [-2]]),
    )),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
def test_reduced_homology_matches_dense_oracle(name):
    c = _ORACLE_CASES[name]()
    dense = [IntMatrix(d.rows, d.cols, d.entries) for d in c.differentials]
    # (d_in, d_out) at each term, with zero maps past both ends
    pairs = [
        (
            dense[p] if p < len(dense) else IntMatrix.zeros(r, 0),
            dense[p - 1] if p else IntMatrix.zeros(0, r),
        )
        for p, r in enumerate(c.ranks)
    ]
    expected = tuple(_dense_homology(d_in, d_out) for d_in, d_out in pairs)
    assert homologies(c) == expected
    assert canonical_form(pairs[0][0]) == expected[0]
    degrees = range(c.bottom_degree, c.top_degree + 1)
    assert tuple(homology(c, i) for i in degrees) == expected
    assert tuple(homology_at(d_in, d_out) for d_in, d_out in pairs) == expected
    reduced_ranks, remainder, _ = _reduce(c.ranks, c.differentials)
    if name == "no-pivot":
        assert reduced_ranks == c.ranks
        assert expected == (FgAbGroup(0), FgAbGroup(0), FgAbGroup(1))
    if name.startswith("two-term-no-pivot"):
        assert not any(d.is_zero() for d in remainder)
    if name == "random-acyclic":
        assert reduced_ranks == (0, 0, 0)
    if name == "divisor-before-unit":
        assert expected == (FgAbGroup(0, (2,)), FgAbGroup(0, (2,)), FgAbGroup(0))
    if name == "short-column-unit":
        assert remainder[0] == SparseMatrix.from_dense(IntMatrix.from_rows([[2, 3], [4, 5]]))
        assert expected == (FgAbGroup(0, (2,)), FgAbGroup(0))
    if name == "missed-divisor":
        assert reduced_ranks == (2, 2, 0) and not remainder[0].is_zero()
        assert expected == (FgAbGroup(0, (6,)), FgAbGroup(0, (2,)), FgAbGroup(0))


# sha256 of each builder's dense differentials over its oracle cases, as the
# dense builders wrote them before the builders emitted sparse columns
_BUILDER_DIGESTS = {
    "kos": "c42fb8991e97b550556743162d9e5b820ccb3b75e5d5143326d891478ea9dcf4",
    "kos_prime": "6d5bad172e21f9ef332304b5f93f99321343659bbb237cac11d897d00b765bcf",
    "tensor_complex": "9f08b5a59fc5599a9c694055d0c971901c499ba28652aab3df2fd079d9399bed",
    "bar": "b0d6aa27a0cf5ad6c07e3dfde833c5220ff20c73f9991174854588fe4e076723",
}


@pytest.mark.parametrize("builder", sorted(_BUILDER_DIGESTS))
def test_sparse_builders_match_the_dense_digests(builder):
    digest = hashlib.sha256()
    for name in sorted(_ORACLE_CASES):
        if builder == "bar":
            if not name.startswith("normalized-bar-"):
                continue
        elif not name.removeprefix("random-padded-").startswith(builder + "-"):
            continue
        for d in _ORACLE_CASES[name]().differentials:
            digest.update(repr((d.rows, d.cols, d.entries)).encode())
    assert digest.hexdigest() == _BUILDER_DIGESTS[builder]


def test_stored_columns_hold_no_zero():
    # the builders skip SparseMatrix's checks, so their columns are checked here
    for name in sorted(_ORACLE_CASES):
        for d in _ORACLE_CASES[name]().differentials:
            assert all(0 not in col.values() for col in d.columns), name
            SparseMatrix(d.rows, d.cols, d.columns)  # rows in range, one column per col


def test_sparse_square_zero_check_matches_the_dense_product():
    rng = random.Random("sparse-dd")
    outcomes = []
    for _ in range(80):
        r, k, c = (rng.randint(1, 6) for _ in range(3))
        a, b = (
            IntMatrix.from_rows(
                [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            for rows, cols in ((r, k), (k, c))
        )
        if rng.random() < 0.5:  # a product that vanishes
            kernel = kernel_basis(a)
            b = kernel @ IntMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(c)] for _ in range(kernel.cols)], cols=c
            )
        zero = abelian._composes_to_zero(SparseMatrix.from_dense(a), SparseMatrix.from_dense(b))
        assert zero == (a @ b).is_zero()
        outcomes.append(zero)
    assert outcomes.count(True) >= 25 and outcomes.count(False) >= 25, outcomes.count(True)
    # one changed entry d_p[0][j], with row j of d_(p+1) nonzero, makes row 0
    # of d_p d_(p+1) nonzero
    changed = 0
    for name in sorted(_ORACLE_CASES):
        c = _ORACLE_CASES[name]()
        for p in range(len(c.differentials) - 1):
            lower, upper = c.differentials[p : p + 2]
            dense = IntMatrix(lower.rows, lower.cols, lower.entries)
            assert (dense @ IntMatrix(upper.rows, upper.cols, upper.entries)).is_zero()
            j = next((i for col in upper.columns for i in col), None)
            if j is None or not lower.rows:
                continue
            columns = list(lower.columns)
            value = columns[j].get(0, 0) + 1
            columns[j] = {i: x for i, x in columns[j].items() if i} | ({0: value} if value else {})
            diffs = list(c.differentials)
            diffs[p] = SparseMatrix(lower.rows, lower.cols, tuple(columns))
            with pytest.raises(ComplexValidityError):
                ChainComplex(c.bottom_degree, c.ranks, diffs)
            changed += 1
    assert changed >= 60, changed


def test_all_zero_survivors_skip_the_smith_diagonal(monkeypatch):
    calls = []
    real = abelian.smith_diagonal
    monkeypatch.setattr(abelian, "smith_diagonal", lambda m: calls.append(m) or real(m))
    # zero maps survive the reduction whole; the empty 3x0 one too
    zero = ChainComplex(0, (2, 3, 0), (IntMatrix.zeros(2, 3), IntMatrix.zeros(3, 0)))
    assert homologies(zero) == (FgAbGroup(2), FgAbGroup(3), FgAbGroup(0))
    assert canonical_form(IntMatrix.zeros(0, 4)) == FgAbGroup(0)
    assert calls == []
    # no entry of this one divides its row and column, so it survives and
    # goes to the Smith diagonal
    assert canonical_form(IntMatrix.from_rows([[2, 3], [3, 2]])) == FgAbGroup(0, (5,))
    assert len(calls) == 1

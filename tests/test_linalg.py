import random
import time
from itertools import combinations
from math import gcd

import lattice_oracle
import pytest
from lattice_oracle import submatrix

from exacthom import linalg
from exacthom.abelian import FgAbGroup, from_cyclic_orders
from exacthom.errors import InputError
from exacthom.grouphom import magnus_sequence
from exacthom.koszul import presentation_from_group, tensor_complex
from exacthom.linalg import (
    IntMatrix,
    SmithDecomposition,
    SparseMatrix,
    det,
    hnf,
    kernel_basis,
    smith_diagonal,
    snf,
    solve,
)
from exacthom.powers import FunctorKind, PowerKind, induced_map
from exacthom.presets import PRESET_NAMES, load_preset


def rand_matrix(rng, rows, cols, lo=-100, hi=100):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def minor_gcds(a):
    """gcd of all k x k minors for each k; the classical SNF oracle."""
    out = []
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for rows in combinations(range(a.rows), k):
            for cols in combinations(range(a.cols), k):
                g = gcd(g, det(submatrix(a, rows, cols)))
        out.append(g)
    return out


def test_from_rows_validation():
    with pytest.raises(InputError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(InputError):
        IntMatrix.from_rows([])  # needs explicit cols when empty
    assert IntMatrix.from_rows([], cols=3).rows == 0
    with pytest.raises(InputError):
        IntMatrix.from_rows([[1]], cols=2)
    # entries go through int(): bools and int()-able inputs become ints
    m = IntMatrix.from_rows([[True, "-3"], [2.0, False]])
    assert m.entries == ((1, -3), (2, 0))
    assert {type(x) for row in m.entries for x in row} == {int}
    assert not m.is_zero() and not IntMatrix.from_rows([[0, 0], [0, -1]]).is_zero()
    assert all(IntMatrix.zeros(r, c).is_zero() for r, c in ((2, 3), (0, 3), (3, 0)))


def test_arithmetic():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).entries == ((2, 1), (4, 3))
    assert a.transpose().entries == ((1, 3), (2, 4))
    assert (a @ IntMatrix.identity(2)) == a
    # shape mismatch
    with pytest.raises(InputError):
        a @ IntMatrix.from_rows([[1, 2, 3]])


def _loop_matmul(a, b):
    """A plain big-int loop, written apart from IntMatrix.__matmul__: the
    reference every product must equal."""
    sparse_rows = [[(j, v) for j, v in enumerate(row) if v] for row in b.entries]
    out = [[0] * b.cols for _ in range(a.rows)]
    for i, arow in enumerate(a.entries):
        orow = out[i]
        for k, x in enumerate(arow):
            if x:
                if x == 1:
                    for j, y in sparse_rows[k]:
                        orow[j] += y
                elif x == -1:
                    for j, y in sparse_rows[k]:
                        orow[j] -= y
                else:
                    for j, y in sparse_rows[k]:
                        orow[j] += x * y
    return IntMatrix(a.rows, b.cols, tuple(tuple(r) for r in out))


def _random_products():
    rng = random.Random("linalg-matmul")

    def entry(mag):  # nonzero: the density alone places the zeros
        if mag == 3:
            return rng.choice((-3, -2, -1, 1, 2, 3))
        return rng.choice((-1, 1)) * (mag + rng.randint(-3, 3))

    def matrix(rows, cols, density, mag):
        return IntMatrix.from_rows(
            [[entry(mag) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)],
            cols=cols,
        )

    # Half the sides are 9 and half the densities 1, so that many products
    # are dense, with entries from small to far past machine width.
    pairs = []
    for _ in range(2000):
        r, n, c = (rng.choice((rng.randint(0, 9), 9)) for _ in range(3))
        density = rng.choice((0.01, 0.1, 0.3, 0.6, 1.0, 1.0, 1.0, 1.0))
        a = matrix(r, n, density, rng.choice((3, 3, 2**31, 2**63, 10**500)))
        b = matrix(n, c, density, rng.choice((3, 3, 2**31, 2**63, 10**500)))
        if r and rng.random() < 0.2:
            a = IntMatrix(r, n, ((0,) * n,) + a.entries[1:])  # an all-zero row of A
        pairs.append((a, b))
    pairs += [
        (IntMatrix.zeros(9, 9), IntMatrix.zeros(9, 9)),
        (IntMatrix.zeros(0, 4), matrix(4, 3, 1.0, 3)),
        (matrix(4, 0, 1.0, 3), IntMatrix.zeros(0, 5)),
        (matrix(3, 4, 1.0, 3), IntMatrix.zeros(4, 0)),
    ]
    return pairs


def _field_edges():
    # 10 x 8 times 8 x 8, with each output bound sum_k |a_ik| * max|b| at
    # 2^(w-1) - 1 or 2^(w-1) for w = 32 and 64: the edges of signed machine
    # fields, which the product must pass as plain big ints. 2^31 - 1 is
    # prime, so that bound comes from one large entry of A.
    def ones(rows, cols, value=1):
        return IntMatrix.from_rows([[value] * cols for _ in range(rows)], cols=cols)

    def big_first(top, sign=1):
        return IntMatrix.from_rows([[sign * (top - 7)] + [sign] * 7] + [[sign] * 8] * 9, cols=8)

    edges = []
    for w in (32, 64):
        half = 1 << (w - 1)
        edges += [
            (big_first(half - 1), ones(8, 8)),
            (big_first(half - 1, sign=-1), ones(8, 8)),
            (ones(10, 8), ones(8, 8, half // 8)),
            (ones(10, 8), ones(8, 8, -half // 8)),
        ]
    return edges


def _tensor4_product():
    rng = random.Random("linalg-tensor4")
    f = FunctorKind(PowerKind.TENSOR, 4)
    a, b = (rand_matrix(rng, 4, 4, -3, 3) for _ in range(2))
    return [(induced_map(f, a), induced_map(f, b))]


def _koszul_dd_product():
    c = tensor_complex(presentation_from_group(from_cyclic_orders((2, 4)), padding=1), 3)
    d1, d2 = (IntMatrix(d.rows, d.cols, d.entries) for d in c.differentials[1:3])
    return [(d1, d2)]


_MATMUL_CASES = {
    "random": _random_products,
    "field-edges": _field_edges,
    "tensor4": _tensor4_product,
    "koszul-dd": _koszul_dd_product,
}


@pytest.mark.parametrize("case", sorted(_MATMUL_CASES))
def test_matmul_matches_loop(case):
    for a, b in _MATMUL_CASES[case]():
        assert a @ b == _loop_matmul(a, b)


def test_sparse_matrix_validation_and_dense_view():
    m = IntMatrix.from_rows([[0, 2, 0], [-1, 0, 0]])
    sparse = SparseMatrix.from_dense(m)
    assert sparse.columns == ({1: -1}, {0: 2}, {})
    assert sparse.entries == m.entries
    assert not sparse.is_zero()
    assert SparseMatrix.from_dense(IntMatrix.zeros(0, 2)).columns == ({}, {})
    assert SparseMatrix(3, 2, ({}, {})).is_zero()
    assert SparseMatrix(2, 0, ()).entries == ((), ())
    # an explicit zero, rows out of range, a missing column, a negative
    # shape, a row that is not an int, a bool entry
    for bad in (
        (2, 1, ({0: 0},)), (2, 1, ({2: 1},)), (2, 1, ({-1: 1},)), (2, 2, ({},)), (-1, 0, ()),
        (2, 1, ({"a": 1},)), (2, 1, ({1: True},)),
    ):
        with pytest.raises(InputError):
            SparseMatrix(*bad)


def test_snf_frozen():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    dec = snf(a)
    assert dec.diagonal == (2, 4)
    assert dec.u @ a @ dec.v == dec.d

    assert snf(IntMatrix.from_rows([[0, -2]])).diagonal == (2,)
    assert snf(IntMatrix.identity(3)).diagonal == (1, 1, 1)
    assert snf(IntMatrix.zeros(2, 3)).diagonal == (0, 0)
    assert smith_diagonal(IntMatrix.diagonal([6, 4])) == (2, 12)

    # 3x2 with known minor gcds: gcd(entries) = 2, gcd(2x2 minors) = 8
    b = IntMatrix.from_rows([[2, 6], [4, 8], [10, 14]])
    assert minor_gcds(b) == [2, 8]
    assert snf(b).diagonal == (2, 4)


def test_snf_structure_validation():
    d = IntMatrix.diagonal([2, 3])  # 3 does not divide by 2's chain rule? 2 | 3 fails
    with pytest.raises(InputError):
        SmithDecomposition(IntMatrix.identity(2), d, IntMatrix.identity(2))
    with pytest.raises(InputError):
        SmithDecomposition(
            IntMatrix.identity(2), IntMatrix.diagonal([-1, 1]), IntMatrix.identity(2)
        )


def test_snf_zero_dimensions():
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        a = IntMatrix.zeros(rows, cols)
        dec = snf(a)
        assert dec.d.rows == rows and dec.d.cols == cols
        assert dec.u @ a @ dec.v == dec.d
        assert dec.rank == 0


def test_snf_random_properties():
    rng = random.Random("linalg-snf")
    for _ in range(120):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = rand_matrix(rng, rows, cols)
        dec = snf(a)
        assert dec.u @ a @ dec.v == dec.d
        assert abs(det(dec.u)) == 1
        assert abs(det(dec.v)) == 1
        diag = [x for x in dec.diagonal if x]
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0
        if rows <= 4 and cols <= 4:
            prefix = 1
            for k, g in enumerate(minor_gcds(a)):
                if k < len(diag):
                    prefix *= diag[k]
                    assert prefix == g
                else:
                    assert g == 0


def test_kernel_basis_frozen():
    assert kernel_basis(IntMatrix.from_rows([[2, -2]])).entries == ((1,), (1,))
    assert kernel_basis(IntMatrix.identity(2)).cols == 0
    assert kernel_basis(IntMatrix.zeros(2, 3)) == IntMatrix.identity(3)
    # 0-row matrix: everything is in the kernel
    assert kernel_basis(IntMatrix.zeros(0, 2)) == IntMatrix.identity(2)


def test_kernel_basis_saturated():
    rng = random.Random("linalg-kernel")
    for _ in range(60):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -9, 9)
        k = kernel_basis(a)
        assert (a @ k).is_zero()
        assert snf(k).rank == k.cols
        # saturation: any integer kernel vector is an integer combination
        if k.cols:
            coeffs = IntMatrix.column([rng.randint(-3, 3) for _ in range(k.cols)])
            v = k @ coeffs
            assert solve(k, v) is not None


def test_solve():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    x = solve(a, IntMatrix.column([4, 9]))
    assert x is not None and (a @ x).entries == ((4,), (9,))
    assert solve(a, IntMatrix.column([1, 0])) is None
    assert solve(IntMatrix.from_rows([[1, 1], [1, 1]]), IntMatrix.column([0, 1])) is None
    # multi-column right-hand side
    b = IntMatrix.from_rows([[2, 0], [0, 6]])
    x = solve(a, b)
    assert x is not None and a @ x == b


def test_solve_zero_target():
    empty = IntMatrix.zeros(2, 0)
    x = solve(empty, IntMatrix.column([0, 0]))
    assert x is not None and x.rows == 0
    assert solve(empty, IntMatrix.column([1, 0])) is None


def _oracle_cases():
    """Seeded matrices for the Hermite-against-Smith comparison: every shape
    0-6 x 0-6 with entries in [-9, 9], sparse 15 x 30 at density 0.2, and
    sigma of the Magnus sequence of every preset presentation."""
    rng = random.Random("linalg-lattice-oracle")
    for rows in range(7):
        for cols in range(7):
            for _ in range(4):
                yield rand_matrix(rng, rows, cols, -9, 9)
    for _ in range(8):
        yield IntMatrix.from_rows(
            [[rng.choice((-2, -1, 1, 2)) if rng.random() < 0.2 else 0 for _ in range(30)]
             for _ in range(15)],
            cols=30,
        )
    for name in PRESET_NAMES:
        for pres in load_preset(name).presentations:
            yield magnus_sequence(pres).sigma


def test_kernel_and_solve_match_the_smith_oracle():
    rng = random.Random("linalg-lattice-rhs")
    for a in _oracle_cases():
        k = kernel_basis(a)
        assert k.rows == a.cols and (a @ k).is_zero()
        assert hnf(k) == hnf(lattice_oracle.kernel_basis(a))
        x0 = rand_matrix(rng, a.cols, 2, -3, 3)
        nudge = rand_matrix(rng, a.rows, 2, 0, 1)
        on = a @ x0
        off = IntMatrix.from_rows(
            [[x + y for x, y in zip(r, s)] for r, s in zip(on.entries, nudge.entries)], cols=2
        )
        # solvable by construction, nudged off the lattice, and arbitrary
        for b in (on, off, rand_matrix(rng, a.rows, 2, -9, 9)):
            x, expected = solve(a, b), lattice_oracle.solve(a, b)
            assert (x is None) == (expected is None)
            if x is not None:
                assert a @ x == b


def test_kernel_and_solve_skip_the_smith_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("snf ran")

    monkeypatch.setattr(linalg, "snf", refuse)
    a = IntMatrix.from_rows([[2, 4, 6], [3, 6, 9]])
    k = kernel_basis(a)
    assert k.cols == 2 and (a @ k).is_zero()
    assert hnf(k) == hnf(IntMatrix.from_rows([[3, -2], [0, 1], [-1, 0]]))
    x = solve(a, IntMatrix.column([4, 6]))
    assert x is not None and a @ x == IntMatrix.column([4, 6])
    assert solve(a, IntMatrix.column([1, 0])) is None
    with pytest.raises(AssertionError):
        linalg.snf(a)


def test_kernel_basis_dense_14x16_is_fast():
    # the Smith transforms swell here: the engine route took over 20 s on
    # half of these seeds
    for seed in range(6):
        a = rand_matrix(random.Random(seed), 14, 16, -9, 9)
        start = time.perf_counter()
        k = kernel_basis(a)
        assert time.perf_counter() - start < 1
        assert k.cols == 2 and (a @ k).is_zero()


def _sweep_cases():
    """Seeded matrices for the Smith-against-engine comparison: every shape
    0-8 x 0-8, each dense with entries in [-9, 9], sparse, of rank at most 2,
    and with entries up to 10^6 (at density 0.4 once rows + cols > 12, where
    the engine's own transforms swell to seconds)."""
    rng = random.Random("linalg-smith-sweep")
    for rows in range(9):
        for cols in range(9):
            yield rand_matrix(rng, rows, cols, -9, 9)
            yield IntMatrix.from_rows(
                [[rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < 0.25 else 0
                  for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            yield rand_matrix(rng, rows, 2, -5, 5) @ rand_matrix(rng, 2, cols, -5, 5)
            density = 1 if rows + cols <= 12 else 0.4
            yield IntMatrix.from_rows(
                [[rng.randint(-10**6, 10**6) if rng.random() < density else 0
                  for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )


def test_snf_and_smith_diagonal_match_the_engine():
    for a in _sweep_cases():
        expected = tuple(lattice_oracle._smith_engine(a, transforms=False)[0])
        dec = snf(a)
        assert dec.diagonal == expected, a
        assert dec.u @ a @ dec.v == dec.d
        assert abs(det(dec.u)) == 1 and abs(det(dec.v)) == 1
        assert smith_diagonal(a) == expected, a


def test_hermite_matches_the_row_sweeping_loop():
    # the loop over the pivot column's nonzero rows makes the oracle's
    # column operations in the oracle's order, so every grid agrees entry
    # for entry, the rows stacked below included
    rng = random.Random(2101)
    for _ in range(1000):
        m, n = rng.randint(0, 16), rng.randint(0, 30)
        density = rng.choice((1.0, 0.2))
        a = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
        d = a + IntMatrix.identity(n).to_lists()[: rng.randint(0, n)]
        modulus = rng.choice((0, 7, 30))
        got, want = [row[:] for row in d], [row[:] for row in d]
        assert linalg._hermite(got, m, n, modulus) == lattice_oracle._hermite(want, m, n, modulus)
        assert got == want, (a, modulus)


def test_snf_transforms_match_the_row_sweeping_loop(monkeypatch):
    # the snf workload's shapes: (rows, cols, density or None for dense, bound)
    rng = random.Random(2102)
    cases = []
    for rows, cols, density, bound in ((8, 8, None, 9), (9, 9, None, 3), (15, 30, 0.2, 2), (16, 24, 0.2, 2)):
        nonzero = [x for x in range(-bound, bound + 1) if x]
        for _ in range(3):
            if density is None:
                grid = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
            else:
                grid = [[rng.choice(nonzero) if rng.random() < density else 0 for _ in range(cols)]
                        for _ in range(rows)]
            cases.append(IntMatrix.from_rows(grid, cols=cols))
    got = [snf(a) for a in cases]
    monkeypatch.setattr(linalg, "_hermite", lattice_oracle._hermite)
    for a, dec in zip(cases, got):
        assert dec == snf(a), a


def test_snf_dense_16x16_is_fast():
    # the engine's transforms reached tens of thousands of digits and
    # seconds on the 11 x 11 seeds, and 16 x 16 did not finish
    for n in (16, 11):
        for seed in range(6):
            a = rand_matrix(random.Random(seed), n, n, -9, 9)
            start = time.perf_counter()
            dec = snf(a)
            assert time.perf_counter() - start < 1, (n, seed)
            assert dec.u @ a @ dec.v == dec.d
            bits = max(abs(x).bit_length() for m in (dec.u, dec.v) for r in m.entries for x in r)
            assert bits < 256, (n, seed, bits)


def test_hnf_frozen():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    h = hnf(a)
    assert h.entries == ((2, 0), (2, 4))

    # redundant generating set of the same lattice
    b = IntMatrix.from_rows([[2, 4, 6], [6, 8, 14]])
    assert hnf(b) == h

    assert hnf(IntMatrix.zeros(2, 3)).cols == 0
    assert hnf(IntMatrix.identity(3)) == IntMatrix.identity(3)
    # index-2 sublattice spanned by (-2,0) and (1,1)
    assert hnf(IntMatrix.from_rows([[-2, 1], [0, 1]])).entries == ((1, 0), (1, 2))


def test_hnf_random_lattice_equality():
    rng = random.Random("linalg-hnf")
    for _ in range(60):
        rows = rng.randint(1, 5)
        a = rand_matrix(rng, rows, rng.randint(1, 5), -9, 9)
        h = hnf(a)
        # mutual containment of column lattices
        assert solve(h, a) is not None
        assert solve(a, h) is not None
        # echelon structure: pivots sit at the topmost nonzero row of their
        # column, pivot rows strictly increase, pivots positive, the pivot
        # row is zero to the right and reduced into [0, pivot) to the left
        last_pivot_row = -1
        for j in range(h.cols):
            col = h.transpose().entries[j]
            pivot_row = min(i for i in range(rows) if col[i] != 0)
            assert pivot_row > last_pivot_row
            last_pivot_row = pivot_row
            pivot = col[pivot_row]
            assert pivot > 0
            for jj in range(j):
                assert 0 <= h.entries[pivot_row][jj] < pivot
            for jj in range(j + 1, h.cols):
                assert h.entries[pivot_row][jj] == 0


def test_det():
    assert det(IntMatrix.from_rows([[2, 4], [6, 8]])) == -8
    assert det(IntMatrix.identity(4)) == 1
    assert det(IntMatrix.zeros(0, 0)) == 1
    assert det(IntMatrix.from_rows([[5]])) == 5
    with pytest.raises(InputError):
        det(IntMatrix.zeros(2, 3))
    rng = random.Random("linalg-det")
    for trial in range(120):
        n = rng.randint(1, 5)
        kind = trial % 3
        if kind == 0:
            a = rand_matrix(rng, n, n, -6, 6)
        elif kind == 1:
            # rank deficient: a product through an inner dimension n - 1
            a = rand_matrix(rng, n, n - 1, -4, 4) @ rand_matrix(rng, n - 1, n, -4, 4)
        else:
            # the only unit sits off the diagonal, outside column 0, so the
            # first pivot needs a column swap (and a row swap unless i = 0)
            grid = [[rng.choice((-1, 1)) * rng.randint(2, 6) for _ in range(n)] for _ in range(n)]
            if n > 1:
                j = rng.randrange(1, n)
                i = rng.choice([k for k in range(n) if k != j])
                grid[i][j] = rng.choice((-1, 1))
            a = IntMatrix.from_rows(grid, cols=n)
        # expansion along the first row as an independent oracle
        def cofactor(m):
            if m.rows == 0:
                return 1
            if m.rows == 1:
                return m.entries[0][0]
            total = 0
            rest = tuple(range(1, m.rows))
            for j in range(m.cols):
                keep = tuple(k for k in range(m.cols) if k != j)
                total += (-1) ** j * m.entries[0][j] * cofactor(submatrix(m, rest, keep))
            return total

        assert det(a) == cofactor(a)
        if kind == 1:
            assert det(a) == 0


def test_kron_matches_its_definition():
    # the Kronecker product against its definition, a's indices major
    rng = random.Random("kron")
    for (r, c), (s, t) in [((0, 3), (2, 2)), ((3, 0), (2, 2)), ((2, 2), (0, 3)),
                           ((2, 2), (3, 0)), ((1, 1), (1, 1)), ((3, 2), (2, 4))]:
        x, y = rand_matrix(rng, r, c, -5, 5), rand_matrix(rng, s, t, -5, 5)
        k = linalg._kron(x, y)
        assert (k.rows, k.cols) == (r * s, c * t)
        assert all(
            k.entries[i * s + p][j * t + q] == x.entries[i][j] * y.entries[p][q]
            for i in range(r) for p in range(s) for j in range(c) for q in range(t)
        )
    assert linalg._kron(IntMatrix.from_rows([[-3]]), IntMatrix.from_rows([[4]])).entries == ((-12,),)


def test_entry_growth_exactness():
    # entries that overflow any fixed-width path; exactness must survive
    a = IntMatrix.from_rows([[10**30, 1], [1, 10**30]])
    dec = snf(a)
    assert dec.u @ a @ dec.v == dec.d
    assert dec.diagonal[0] == 1
    assert dec.diagonal[1] == 10**60 - 1


def test_smith_diagonal_bounded_route():
    from exacthom.linalg import _smith_diagonal_bounded

    # edges where a pivot vanishes mod the determinant bound or the
    # divisibility chain needs fixing up after extraction
    assert _smith_diagonal_bounded(IntMatrix.from_rows([[4]])) == (4,)
    assert _smith_diagonal_bounded(IntMatrix.from_rows([[2, 2], [2, 2]])) == (2, 0)
    assert _smith_diagonal_bounded(IntMatrix.diagonal([2, 6])) == (2, 6)
    assert _smith_diagonal_bounded(IntMatrix.zeros(2, 3)) == (0, 0)
    assert _smith_diagonal_bounded(IntMatrix.identity(3)) == (1, 1, 1)
    assert _smith_diagonal_bounded(IntMatrix.zeros(0, 3)) == ()
    assert _smith_diagonal_bounded(IntMatrix.zeros(3, 0)) == ()
    rng = random.Random("linalg-bounded")
    for _ in range(200):
        a = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), -9, 9)
        assert _smith_diagonal_bounded(a) == snf(a).diagonal
    # tall and rank deficient: a 6 x k product through inner dimension 2
    for cols in (2, 3, 4):
        a = rand_matrix(rng, 6, 2, -5, 5) @ rand_matrix(rng, 2, cols, -5, 5)
        assert _smith_diagonal_bounded(a) == snf(a).diagonal
        assert snf(a).rank <= 2


def test_divisibility_chain_matches_the_pairwise_pass():
    rng = random.Random("linalg-chain")
    for trial in range(2000):
        pool = rng.choice(([1, 2, 3, 4, 6, 12], [2, 4, 8], [1, 5, 7, 35, 10, 14], list(range(1, 40))))
        values = [rng.choice(pool) for _ in range(rng.randint(0, 12 if trial % 4 else 60))]
        got = values.copy()
        assert linalg._divisibility_chain(got) is got  # in place
        assert got == lattice_oracle.divisibility_chain(values), values


def test_divisibility_chain_of_repeated_orders_is_fast():
    # the pairwise pass met every pair of the 16 000 positions: 4.6 s of CPU
    start = time.process_time()
    group = from_cyclic_orders([2] * 8000 + [3] * 8000)
    assert time.process_time() - start < 0.1
    assert group == FgAbGroup(0, (6,) * 8000)


def test_bareiss_minor_is_a_maximal_nonzero_minor():
    # any nonzero pivot will do: the last one is still +- an r x r minor
    rng = random.Random("linalg-bareiss")
    for _ in range(60):
        m, n, inner = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 3)
        a = rand_matrix(rng, m, inner, -4, 4) @ rand_matrix(rng, inner, n, -4, 4)
        rank, minor = linalg._bareiss(a)
        assert rank == snf(a).rank
        minors = {abs(det(submatrix(a, rows, cols)))
                  for rows in combinations(range(m), rank) for cols in combinations(range(n), rank)}
        assert minor and abs(minor) in minors


def test_smith_diagonal_swell_fallback(monkeypatch):
    from exacthom.linalg import _diagonalize, _EntrySwell

    a = IntMatrix.from_rows([[10**30, 1], [1, 10**30]])
    with pytest.raises(_EntrySwell):
        _diagonalize(a.to_lists(), 2, 2, [], [], bit_cap=8)
    # the public route answers the same whichever path it takes
    assert smith_diagonal(a) == (1, 10**60 - 1)
    # a dense input on which the swell guard trips inside smith_diagonal
    def swelling(d, m, n, v, ut, modulus=0, bit_cap=0):
        if bit_cap:
            raise _EntrySwell
        return _diagonalize(d, m, n, v, ut, modulus)

    taken = []
    bounded = linalg._smith_diagonal_bounded
    monkeypatch.setattr(linalg, "_diagonalize", swelling)
    monkeypatch.setattr(linalg, "_smith_diagonal_bounded", lambda m: taken.append(m) or bounded(m))
    dense = rand_matrix(random.Random("linalg-swell"), 8, 8, -9, 9)
    assert smith_diagonal(dense) == snf(dense).diagonal
    assert taken == [dense]

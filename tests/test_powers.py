import random
import time
from math import comb

import pytest
from div_oracle import _div_induced
from power_oracle import _ext_induced, _sym_induced

from exacthom.errors import InputError
from exacthom.linalg import IntMatrix, det
from exacthom.powers import (
    FunctorKind,
    PowerKind,
    _mult_table,
    _times,
    basis,
    basis_index,
    div_contract,
    induced_map,
    norm_diagonal,
)


def rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def test_functor_kind_parse():
    f = FunctorKind.parse("sym", 2)
    assert f.kind is PowerKind.SYM and f.degree == 2
    assert str(f) == "sym^2"
    assert str(FunctorKind.parse("tensor", 3)) == "tensor^3"
    with pytest.raises(InputError):
        FunctorKind.parse("bogus", 2)
    with pytest.raises(InputError):
        FunctorKind(PowerKind.SYM, 0)


def test_basis_enumeration():
    assert basis(PowerKind.TENSOR, 2, 2) == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert basis(PowerKind.SYM, 2, 2) == ((0, 0), (0, 1), (1, 1))
    assert basis(PowerKind.EXT, 2, 2) == ((0, 1),)
    assert basis(PowerKind.DIV, 2, 2) == ((0, 0), (0, 1), (1, 1))
    assert basis(PowerKind.EXT, 3, 2) == ()
    assert basis(PowerKind.SYM, 0, 2) == ((),)
    assert basis_index(PowerKind.SYM, 2, 2, (0, 1)) == 1
    with pytest.raises(InputError):
        basis_index(PowerKind.SYM, 2, 2, (1, 0))  # not weakly increasing


def test_dim_matches_basis():
    # r^n words, C(r, n) subsets and C(r + n - 1, n) multisets of n letters
    for kind in PowerKind:
        for n in range(1, 5):
            for r in range(0, 5):
                if kind is PowerKind.TENSOR:
                    rank = r**n
                elif kind is PowerKind.EXT:
                    rank = comb(r, n)
                else:
                    rank = comb(r + n - 1, n)
                assert len(basis(kind, n, r)) == rank


def _product(kind, v, t):
    """The nonzero terms (index, coefficient) of v * t, read from row t of
    the multiplication table."""
    r, k = len(v), len(t)
    row = _mult_table(kind, k, r)[basis_index(kind, k, r, t)]
    return _times(row, [(i, c) for i, c in enumerate(v) if c])


def test_sym_mult():
    # x * (x*y) = x^2*y, the second monomial of S^3 = (x^3, x^2y, xy^2, y^3)
    assert _product(PowerKind.SYM, [1, 0], (0, 1)) == [(1, 1)]
    # (2x + 3y) * y^2 = 2 x*y^2 + 3 y^3
    assert _product(PowerKind.SYM, [2, 3], (1, 1)) == [(2, 2), (3, 3)]


def test_ext_mult():
    # e1 ^ (e0 ^ e2) = -(e0 ^ e1 ^ e2): one wedge index below the insertion
    assert _product(PowerKind.EXT, [0, 1, 0], (0, 2)) == [(0, -1)]
    # e0 ^ (e0 ^ e2) = 0
    assert _product(PowerKind.EXT, [1, 0, 0], (0, 2)) == []
    # (e0 + e1) ^ e2 over rank 3: basis (0,1), (0,2), (1,2)
    assert _product(PowerKind.EXT, [1, 1, 0], (2,)) == [(1, 1), (2, 1)]


def test_mult_table_rows():
    # row t holds the position and sign of e_i * t for each generator i,
    # with the indices growing in i, so _times writes every Koszul column
    # with its rows ascending
    rng = random.Random("powers-table")
    for kind in (PowerKind.SYM, PowerKind.EXT):
        for r in range(5):
            for k in range(4):
                table = _mult_table(kind, k, r)
                assert len(table) == len(basis(kind, k, r))
                for t, row in zip(basis(kind, k, r), table):
                    v = [rng.randint(-2, 2) for _ in range(r)]
                    want = [0] * len(basis(kind, k + 1, r))
                    for i, entry in enumerate(row):
                        if kind is PowerKind.EXT and i in t:
                            assert entry is None
                            continue
                        below = sum(1 for j in t if j < i)
                        sign = -1 if kind is PowerKind.EXT and below % 2 else 1
                        index = basis_index(kind, k + 1, r, sorted(t + (i,)))
                        assert entry == (index, sign)
                        want[index] += sign * v[i]
                    indices = [entry[0] for entry in row if entry is not None]
                    assert indices == sorted(indices)
                    terms = _times(row, [(i, c) for i, c in enumerate(v) if c])
                    assert terms == [(index, c) for index, c in enumerate(want) if c]


def test_div_contract():
    assert div_contract((0, 0, 1), 0) == (0, 1)
    assert div_contract((0, 0, 1), 1) == (0, 0)
    assert div_contract((0, 0, 1), 2) is None


def test_induced_frozen_2x2():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert induced_map(FunctorKind(PowerKind.SYM, 2), m).entries == (
        (1, 2, 4),
        (6, 10, 16),
        (9, 12, 16),
    )
    assert induced_map(FunctorKind(PowerKind.DIV, 2), m).entries == (
        (1, 4, 4),
        (3, 10, 8),
        (9, 24, 16),
    )
    assert induced_map(FunctorKind(PowerKind.EXT, 2), m).entries == ((-2,),)
    assert induced_map(FunctorKind(PowerKind.TENSOR, 2), m).entries == (
        (1, 2, 2, 4),
        (3, 4, 6, 8),
        (3, 6, 4, 8),
        (9, 12, 12, 16),
    )


def test_norm_diagonal_frozen():
    assert norm_diagonal(2, 2).entries == ((1, 0, 0), (0, 2, 0), (0, 0, 1))
    assert [norm_diagonal(3, 2).entries[i][i] for i in range(4)] == [1, 3, 3, 1]


def test_induced_identity_and_shape():
    rng = random.Random("powers-shape")
    for kind in PowerKind:
        for n in (1, 2, 3):
            f = FunctorKind(kind, n)
            for r in (0, 1, 2, 3):
                assert induced_map(f, IntMatrix.identity(r)) == IntMatrix.identity(
                    len(basis(kind, n, r))
                )
            m = rand_matrix(rng, 3, 2)
            out = induced_map(f, m)
            assert (out.rows, out.cols) == (len(basis(kind, n, 3)), len(basis(kind, n, 2)))


def test_functoriality_rectangular():
    rng = random.Random("powers-compose")
    for _ in range(25):
        n = rng.randint(1, 3)
        r1, r2, r3 = (rng.randint(1, 3) for _ in range(3))
        a = rand_matrix(rng, r1, r2)
        b = rand_matrix(rng, r2, r3)
        for kind in PowerKind:
            f = FunctorKind(kind, n)
            assert induced_map(f, a @ b) == induced_map(f, a) @ induced_map(f, b)


def _oracle(kind, n, m):
    if kind is PowerKind.SYM:
        return _sym_induced(n, m)
    if kind is PowerKind.EXT:
        return _ext_induced(n, m)
    return _div_induced(n, m)


def test_sym_ext_div_match_their_oracles():
    # Sym and Ext against the column-by-column and minor expansions, Div
    # against the divided-power algebra; every shape 0..5 x 0..5 at n = 1..5,
    # random, zero and identity matrices, so n > r for Ext is included
    rng = random.Random("powers-oracles")
    for rows in range(6):
        for cols in range(6):
            cases = [rand_matrix(rng, rows, cols, -9, 9), IntMatrix.zeros(rows, cols)]
            if rows == cols:
                cases.append(IntMatrix.identity(rows))
            for n in range(1, 6):
                for kind in (PowerKind.SYM, PowerKind.EXT, PowerKind.DIV):
                    for m in cases:
                        assert induced_map(FunctorKind(kind, n), m) == _oracle(kind, n, m), (kind, n, m)


def test_large_sym_and_ext_powers_stay_fast():
    # dense Sym^6 of 6 x 6 (462 x 462) and Ext^4 of 8 x 8 (70 x 70); best of
    # three, so one slow moment of a shared host does not decide
    rng = random.Random("powers-size")
    for kind, n, r in ((PowerKind.SYM, 6, 6), (PowerKind.EXT, 4, 8)):
        m = rand_matrix(rng, r, r, -9, 9)
        seconds = []
        for _ in range(3):
            start = time.process_time()
            out = induced_map(FunctorKind(kind, n), m)
            seconds.append(time.process_time() - start)
        assert out.rows == out.cols == len(basis(kind, n, r))
        assert min(seconds) < 0.5, (kind, seconds)


def test_top_exterior_power_is_det():
    rng = random.Random("powers-det")
    for _ in range(20):
        k = rng.randint(1, 4)
        m = rand_matrix(rng, k, k, -5, 5)
        assert induced_map(FunctorKind(PowerKind.EXT, k), m).entries == ((det(m),),)


def test_divided_symmetric_duality():
    rng = random.Random("powers-duality")
    for _ in range(25):
        n = rng.randint(1, 3)
        m = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        div = induced_map(FunctorKind(PowerKind.DIV, n), m)
        sym_t = induced_map(FunctorKind(PowerKind.SYM, n), m.transpose())
        assert div == sym_t.transpose()
        assert div == _div_induced(n, m)
    # the duality against the divided-power algebra expansion, 0-row and
    # 0-column shapes included
    for rows in range(5):
        for cols in range(5):
            for n in range(1, 5):
                m = rand_matrix(rng, rows, cols)
                assert induced_map(FunctorKind(PowerKind.DIV, n), m) == _div_induced(n, m)


def test_norm_naturality():
    rng = random.Random("powers-norm")
    for _ in range(25):
        n = rng.randint(1, 3)
        r1, r2 = rng.randint(1, 3), rng.randint(1, 3)
        m = rand_matrix(rng, r2, r1)
        sym = induced_map(FunctorKind(PowerKind.SYM, n), m)
        div = induced_map(FunctorKind(PowerKind.DIV, n), m)
        assert sym @ norm_diagonal(n, r1) == norm_diagonal(n, r2) @ div


def test_div_on_scaled_vector():
    # gamma_n(c*v) = c^n gamma_n(v): rank-1 matrix [[c]] induces [[c^n]]
    for c in (-2, 3):
        for n in (2, 3, 4):
            m = IntMatrix.from_rows([[c]])
            assert induced_map(FunctorKind(PowerKind.DIV, n), m).entries == ((c**n,),)
            # and Sym^n does the same on rank 1
            assert induced_map(FunctorKind(PowerKind.SYM, n), m).entries == ((c**n,),)


def test_div_addition_rule():
    # gamma_2(v + w) = gamma_2(v) + gamma_1(v)gamma_1(w) + gamma_2(w):
    # the column of [[1],[1]] under Div^2 is all ones
    m = IntMatrix.from_rows([[1], [1]])
    assert induced_map(FunctorKind(PowerKind.DIV, 2), m).entries == ((1,), (1,), (1,))
    # with a coefficient: v + 2w gives (1, 2, 4) against gamma_2(cx) = c^2
    m2 = IntMatrix.from_rows([[1], [2]])
    assert induced_map(FunctorKind(PowerKind.DIV, 2), m2).entries == ((1,), (2,), (4,))
    # symmetric square of the same column picks up the cross coefficient 2
    assert induced_map(FunctorKind(PowerKind.SYM, 2), m).entries == ((1,), (2,), (1,))

"""The divided-power algebra expansion of Div^n(m): the oracle that
exacthom.powers, which computes Div^n(m) as Sym^n(m^T)^T, is checked
against.

Divided powers multiply by g_a(v) g_b(v) = C(a+b, a) g_{a+b}(v) and expand
along g_a(v + w) = sum_{i+j=a} g_i(v) g_j(w) with g_a(c v) = c^a g_a(v); no
other relations are used.
"""

import math
from typing import Sequence

from exacthom.linalg import IntMatrix
from exacthom.powers import PowerKind, _index_map, basis


def _exponents(mono: tuple[int, ...], r: int) -> tuple[int, ...]:
    exps = [0] * r
    for i in mono:
        exps[i] += 1
    return tuple(exps)


def _mono_of_exponents(exps: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for i, e in enumerate(exps):
        out.extend([i] * e)
    return tuple(out)


def _weak_compositions(total: int, slots: Sequence[int]):
    """Yield dicts slot -> positive part, over weak compositions of total."""
    if not slots:
        if total == 0:
            yield {}
        return
    first, rest = slots[0], slots[1:]
    for part in range(total + 1):
        for tail in _weak_compositions(total - part, rest):
            if part:
                out = dict(tail)
                out[first] = part
                yield out
            else:
                yield tail


def _div_of_column(a: int, coeffs: list[tuple[int, int]], r: int) -> dict[tuple[int, ...], int]:
    """Expand g_a(sum_i c_i e_i) as exponent-vector -> coefficient."""
    out: dict[tuple[int, ...], int] = {}
    slots = [i for i, _ in coeffs]
    values = dict(coeffs)
    for comp in _weak_compositions(a, slots):
        coeff = 1
        exps = [0] * r
        for i, part in comp.items():
            coeff *= values[i] ** part
            exps[i] = part
        key = tuple(exps)
        out[key] = out.get(key, 0) + coeff
    return out


def _div_product(
    x: dict[tuple[int, ...], int], y: dict[tuple[int, ...], int]
) -> dict[tuple[int, ...], int]:
    """Product in the divided power algebra, on exponent-vector dicts."""
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            coeff = c1 * c2
            for a, b in zip(e1, e2):
                if a and b:
                    coeff *= math.comb(a + b, a)
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + coeff
    return out


def _div_induced(n: int, m: IntMatrix) -> IntMatrix:
    r_src, r_dst = m.cols, m.rows
    src = basis(PowerKind.DIV, n, r_src)
    dst_index = _index_map(PowerKind.DIV, n, r_dst)
    sparse_cols = [
        [(i, m.entries[i][j]) for i in range(r_dst) if m.entries[i][j]]
        for j in range(r_src)
    ]
    columns = []
    for mono in src:
        acc: dict[tuple[int, ...], int] = {(0,) * r_dst: 1}
        for j, a in enumerate(_exponents(mono, r_src)):
            if a:
                acc = _div_product(acc, _div_of_column(a, sparse_cols[j], r_dst))
        col = [0] * len(dst_index)
        for exps, c in acc.items():
            if c:
                col[dst_index[_mono_of_exponents(exps)]] = c
        columns.append(col)
    return IntMatrix.from_rows(
        [[columns[j][i] for j in range(len(src))] for i in range(len(dst_index))],
        cols=len(src),
    )

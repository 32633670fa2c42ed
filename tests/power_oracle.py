"""The column-by-column expansion of Sym^n(m) and the minor expansion of
Ext^n(m): the oracles that exacthom.powers, which builds both as shared
products over one multiplication table, is checked against. Also the
functor value on a group summed over a listed basis, the oracle for
koszul.power_of_group, which counts the basis instead.

Sym^n(m) expands each source monomial on its own, multiplying one column of
m at a time into a dict of destination monomials. Ext^n(m) takes entry
(rows, cols) to be the n x n minor det(m[rows, cols]) (Cauchy-Binet).
"""

import math

from lattice_oracle import submatrix

from exacthom.abelian import FgAbGroup, from_cyclic_orders
from exacthom.linalg import IntMatrix, det
from exacthom.powers import FunctorKind, PowerKind, _index_map, basis


def _sym_induced(n: int, m: IntMatrix) -> IntMatrix:
    r_src, r_dst = m.cols, m.rows
    src = basis(PowerKind.SYM, n, r_src)
    dst_index = _index_map(PowerKind.SYM, n, r_dst)
    columns = []
    for mono in src:
        acc: dict[tuple[int, ...], int] = {(): 1}
        for j in mono:
            new: dict[tuple[int, ...], int] = {}
            for partial, c in acc.items():
                for i in range(r_dst):
                    coeff = m.entries[i][j]
                    if coeff:
                        key = tuple(sorted(partial + (i,)))
                        new[key] = new.get(key, 0) + c * coeff
            acc = new
        col = [0] * len(dst_index)
        for mono_dst, c in acc.items():
            col[dst_index[mono_dst]] = c
        columns.append(col)
    return IntMatrix.from_rows(
        [[columns[j][i] for j in range(len(src))] for i in range(len(dst_index))],
        cols=len(src),
    )


def _ext_induced(n: int, m: IntMatrix) -> IntMatrix:
    src = basis(PowerKind.EXT, n, m.cols)
    dst = basis(PowerKind.EXT, n, m.rows)
    grid = [
        [det(submatrix(m, rows_idx, cols_idx)) for cols_idx in src]
        for rows_idx in dst
    ]
    return IntMatrix.from_rows(grid, cols=len(src))


def power_of_group(f: FunctorKind, a: FgAbGroup) -> FgAbGroup:
    """Z/gcd of the orders of each basis element's letters, summed over the
    whole basis of the power of Z^r, r the number of cyclic pieces of a."""
    orders = [0] * a.free_rank + list(a.invariant_factors)
    picks = basis(f.kind, f.degree, len(orders))
    return from_cyclic_orders([math.gcd(*(orders[i] for i in pick)) for pick in picks])

"""The full inhomogeneous bar complex, words containing the identity
included: the oracle that the normalized bar complex of
exacthom.grouphom and the complex reduction of exacthom.abelian are
checked against."""

import itertools

from exacthom.grouphom import GModuleFree
from exacthom.linalg import IntMatrix


def full_bar_differential(coeff: GModuleFree, k: int) -> IntMatrix:
    """d_k of the full inhomogeneous bar complex C_k = M (x) Z[G^k].

    Basis of C_k: pairs (word in G^k, module coordinate), index word-major.
    d(m (x) [g1|..|gk]) = g1^-1 m (x) [g2|..|gk]
                          + sum_j (-1)^j m (x) [..|g_j g_{j+1}|..]
                          + (-1)^k m (x) [g1|..|g_{k-1}].
    """
    table = coeff.group
    n = table.order
    rank = coeff.rank
    rows = rank * n ** (k - 1)
    cols = rank * n**k
    grid = [[0] * cols for _ in range(rows)]
    tail = n ** (k - 1)
    sign_last = -1 if k % 2 else 1
    for widx, word in enumerate(itertools.product(range(n), repeat=k)):
        twist = coeff.action[table.inverse[word[0]]].entries
        faces = []
        for j in range(1, k):
            merged = word[: j - 1] + (table.mult[word[j - 1]][word[j]],) + word[j + 1 :]
            idx = 0
            for letter in merged:
                idx = idx * n + letter
            faces.append((idx * rank, -1 if j % 2 else 1))
        faces.append(((widx // n) * rank, sign_last))
        for j in range(rank):
            col = widx * rank + j
            for t in range(rank):
                grid[(widx % tail) * rank + t][col] += twist[t][j]
            for base, sign in faces:
                grid[base + j][col] += sign
    return IntMatrix.from_rows(grid, cols=cols)

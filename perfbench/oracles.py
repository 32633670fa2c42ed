"""Reference answers computed without the code under test.

Everything here is the benchmark's own arithmetic or a classical closed
form; nothing imports exacthom. Groups are compared as the canonical text
the package prints ("Z^2 + Z/2 + Z/6", "0"), which is fixed by the
invariant-factor normal form, so equal strings mean isomorphic groups.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path
from typing import Optional, Sequence

Matrix = Sequence[Sequence[int]]

# L_i Sym^n and L_i Ext^n of the groups the workloads use, computed once from
# the unpadded (diagonal) presentation. The timed jobs use padded
# presentations, which give different complexes with the same homology.
FROZEN_DERIVED = json.loads(
    (Path(__file__).with_name("frozen_derived.json")).read_text("utf-8")
)


# ------------------------------------------------------------------ groups


def _prime_powers(d: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= d:
        while d % p == 0:
            out[p] = out.get(p, 1) * p
            d //= p
        p += 1
    if d > 1:
        out[d] = out.get(d, 1) * d
    return out


def group_text(orders: Sequence[int]) -> str:
    """Canonical text of the direct sum of Z/order (order 0 meaning Z)."""
    free = sum(1 for d in orders if d == 0)
    by_prime: dict[int, list[int]] = defaultdict(list)
    for d in orders:
        if d > 1:
            for p, q in _prime_powers(d).items():
                by_prime[p].append(q)
    width = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * width
    for powers in by_prime.values():
        # the i-th largest invariant factor takes the i-th largest power
        for i, q in enumerate(sorted(powers, reverse=True)):
            factors[width - 1 - i] *= q
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{d}" for d in factors)
    return " + ".join(parts) if parts else "0"


def parse_orders(text: str) -> list[int]:
    """Cyclic orders of a group written as `Z`, `Z^k`, `Z/k` joined by `+`."""
    orders: list[int] = []
    for part in text.replace(" ", "").split("+"):
        if part == "0":
            continue
        if part == "Z":
            orders.append(0)
        elif part.startswith("Z^"):
            orders.extend([0] * int(part[2:]))
        elif part.startswith("Z/"):
            orders.append(int(part[2:]))
        else:
            raise ValueError(f"cannot parse group term {part!r}")
    return orders


# -------------------------------------------------------- derived functors


def _kunneth(x: dict[int, list[int]], y: dict[int, list[int]]) -> dict[int, list[int]]:
    """Homology of X (x) Y for complexes of free abelian groups, by cyclic
    summands: Z/a (x) Z/b = Z/gcd(a, b) in degree p+q and Tor(Z/a, Z/b) =
    Z/gcd(a, b) in degree p+q+1 when both are finite (order 0 is Z)."""
    out: dict[int, list[int]] = defaultdict(list)
    for p, xs in x.items():
        for q, ys in y.items():
            for a in xs:
                for b in ys:
                    g = math.gcd(a, b)
                    out[p + q].append(g)
                    if a and b:
                        out[p + q + 1].append(g)
    return out


def derived_values(functor: str, n: int, group: str) -> list[str]:
    """L_0 .. L_n of functor^n on the group, as canonical text.

    The tensor power comes from the Kunneth formula applied to the n-fold
    tensor power of a two-term free resolution; symmetric and exterior
    powers come from the frozen table.
    """
    if functor == "tensor":
        acc: dict[int, list[int]] = {0: [0]}
        base = {0: parse_orders(group)}
        for _ in range(n):
            acc = _kunneth(acc, base)
        return [group_text(acc.get(i, [])) for i in range(n + 1)]
    return FROZEN_DERIVED[f"{functor}^{n}"][group_text(parse_orders(group))]


# ---------------------------------------------------------- group homology

GROUP_ORDERS = {"Z2": 2, "Z3": 3, "Z4": 4, "Z2xZ2": 4, "S3": 6}


def homology_trivial(group: str, i: int) -> str:
    """H_i(G; Z) from the classical tables."""
    if i == 0:
        return "Z"
    if group in ("Z2", "Z3", "Z4"):  # cyclic: 2-periodic resolution
        return f"Z/{GROUP_ORDERS[group]}" if i % 2 else "0"
    if group == "Z2xZ2":  # Kunneth for Z/2 x Z/2
        return group_text([2] * ((i + 3) // 2 if i % 2 else i // 2))
    if group == "S3":
        return {1: "Z/2", 3: "Z/6"}.get(i % 4, "0")
    raise ValueError(f"no homology table for {group}")


def homology(group: str, coeff: str, i: int) -> str:
    """H_i(G; M) for M trivial, the regular module ZG or the augmentation
    ideal; ZG is free, so 0 -> IG -> ZG -> Z -> 0 shifts H_i(IG) = H_{i+1}(Z)."""
    if coeff == "trivial":
        return homology_trivial(group, i)
    if coeff == "regular":
        return "Z" if i == 0 else "0"
    if coeff == "augmentation":
        return homology_trivial(group, i + 1)
    raise ValueError(f"unknown coefficients {coeff}")


def four_term(group: str, generators: int, n: int) -> list[str]:
    """(A, B, C, D) of the degree-n sequence for trivial coefficients.

    A = H_2n(G), D = H_2n-1(G). Rationally the relation module R of a
    presentation with d generators has character (d-1)|G| at 1 and 1
    elsewhere, which gives the ranks of B = (R^(x)n)_G and of
    C = H_1(F, R^(x)(n-1)) (a free group, of rank rk N_G + (d-1) rk N by the
    Euler characteristic of F). Exactness with C free splits B = A + free.
    """
    order = GROUP_ORDERS[group]
    chi1 = (generators - 1) * order + 1
    rank_b, rem_b = divmod(chi1**n + order - 1, order)
    rank_n_g, rem_c = divmod(chi1 ** (n - 1) + order - 1, order)
    if rem_b or rem_c:
        raise ValueError("character sums must be divisible by the group order")
    rank_c = rank_n_g + (generators - 1) * chi1 ** (n - 1)
    a = homology_trivial(group, 2 * n)
    d = homology_trivial(group, 2 * n - 1)
    b = group_text([0] * rank_b + parse_orders(a))
    return [a, b, group_text([0] * rank_c), d]


# ------------------------------------------------------- matrix arithmetic


def matmul(a: Matrix, b: Matrix, inner: int) -> list[list[int]]:
    """a (r x inner) times b (inner x c); inner is explicit for empty shapes."""
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for k in range(inner):
            x = row[k]
            if x:
                for j, y in enumerate(b[k]):
                    acc[j] += x * y
        out.append(acc)
    return out


def det(a: Matrix) -> int:
    """Fraction-free (Bareiss) determinant."""
    m = [list(r) for r in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        p = m[k][k]
        for i in range(k + 1, n):
            mi, f = m[i], m[i][k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * p - f * m[k][j]) // prev
        prev = p
    return sign * m[n - 1][n - 1] if n else 1


def _echelon_pivots(a: Matrix, cols: int) -> list[int]:
    """Pivots of a row echelon form reached by unimodular row operations
    (Euclid on each column). Their product is the index of the row lattice
    of a in its saturation when a has full column rank."""
    m = [list(r) for r in a]
    pivots = []
    top = 0
    for j in range(cols):
        while True:
            live = [i for i in range(top, len(m)) if m[i][j]]
            if not live:
                break
            p = min(live, key=lambda i: abs(m[i][j]))
            m[top], m[p] = m[p], m[top]
            pivot_row = m[top]
            done = True
            for i in range(top + 1, len(m)):
                x = m[i][j]
                if x:
                    q = x // pivot_row[j]
                    m[i] = [s - q * t for s, t in zip(m[i], pivot_row)]
                    done = done and not m[i][j]
            if done:
                pivots.append(pivot_row[j])
                top += 1
                break
    return pivots


def rank(a: Matrix, cols: int) -> int:
    return len(_echelon_pivots(a, cols))


def hnf(a: Matrix, cols: int) -> list[list[int]]:
    """Column-style Hermite normal form, as documented for exacthom.linalg.hnf:
    positive pivots whose rows strictly increase, entries left of a pivot in
    [0, pivot), zero columns dropped. The form is unique, so any correct
    implementation must return exactly this matrix."""
    d = [list(r) for r in a]
    t = 0
    for row in d:
        if t >= cols:
            break
        while True:
            live = [j for j in range(t, cols) if row[j]]
            if not live:
                break
            pj = min(live, key=lambda j: abs(row[j]))
            for r in d:
                r[t], r[pj] = r[pj], r[t]
            if row[t] < 0:
                for r in d:
                    r[t] = -r[t]
            p = row[t]
            for j in range(t + 1, cols):
                q = row[j] // p
                if q:
                    for r in d:
                        r[j] -= q * r[t]
            if not any(row[j] for j in range(t + 1, cols)):
                break
        if t < cols and row[t]:
            p = row[t]
            for j in range(t):
                q = row[j] // p
                if q:
                    for r in d:
                        r[j] -= q * r[t]
            t += 1
    return [r[:t] for r in d]


def check_smith(a: Matrix, cols: int, u: Matrix, dm: Matrix, v: Matrix) -> Optional[str]:
    """None when u*a*v = d with u, v unimodular and d in Smith form."""
    rows = len(a)
    if len(u) != rows or any(len(r) != rows for r in u):
        return "U has the wrong shape"
    if len(v) != cols or any(len(r) != cols for r in v):
        return "V has the wrong shape"
    if len(dm) != rows or any(len(r) != cols for r in dm):
        return "D has the wrong shape"
    diag = [dm[i][i] for i in range(min(rows, cols))]
    if any(x for i, r in enumerate(dm) for j, x in enumerate(r) if i != j):
        return "D is not diagonal"
    nonzero = [x for x in diag if x]
    if any(x < 0 for x in diag) or diag[: len(nonzero)] != nonzero:
        return "D has negative entries or zeros before nonzero ones"
    if any(y % x for x, y in zip(nonzero, nonzero[1:])):
        return "D is not a divisibility chain"
    if matmul(matmul(u, a, rows), v, cols) != [list(r) for r in dm]:
        return "U*A*V != D"
    if rows == cols and rows:
        det_a = det(a)
        if det_a:
            # det U * det A * det V = det D, so |det U * det V| = 1 exactly
            # when |det A| equals the product of the diagonal.
            return None if abs(det_a) == math.prod(diag) else "U or V is not unimodular"
    if rows and abs(det(u)) != 1:
        return "U is not unimodular"
    if cols and abs(det(v)) != 1:
        return "V is not unimodular"
    return None


def check_kernel(a: Matrix, cols: int, k: Matrix, kcols: int) -> Optional[str]:
    """None when the columns of k are a basis of the saturated kernel of a."""
    if len(k) != cols or any(len(r) != kcols for r in k):
        return "kernel basis has the wrong shape"
    if kcols != cols - rank(a, cols):
        return "kernel basis has the wrong number of columns"
    if any(any(r) for r in matmul(a, k, cols)):
        return "A*K != 0"
    pivots = _echelon_pivots(k, kcols)
    if len(pivots) != kcols or any(abs(p) != 1 for p in pivots):
        return "kernel basis is dependent or spans an unsaturated lattice"
    return None

"""Seeded self-verification suites behind the `verify` command.

Each suite returns a JSON-ready report dict with a deterministic structure:
given the same seed, two runs produce identical reports byte for byte. The
random generators are seeded per suite from strings, so suite order cannot
leak randomness across suites.
"""

from __future__ import annotations

import math
import random
from itertools import chain
from operator import mul
from struct import Struct
from typing import Optional

from .abelian import FgAbGroup, canonical_form
from .errors import ComplexValidityError, InputError
from .grouphom import GModuleFree, fox_derivative, four_term_report
from .koszul import (
    PresentationPair,
    _div_contractions,
    derived_from_presentation,
    kos,
    kos_prime,
    presentation_from_group,
    random_padded_presentation,
    tensor_complex,
)
from .linalg import IntMatrix, _kron, det
from .powers import (
    FunctorKind,
    PowerKind,
    basis,
    basis_index,
    induced_map,
    norm_diagonal,
)
from .presets import PRESET_NAMES, load_preset

__all__ = [
    "random_matrix",
    "random_unimodular",
    "random_presentation",
    "run_functoriality",
    "run_koszul_d2",
    "run_independence",
    "run_four_term",
    "run_all",
    "SUITE_NAMES",
]

SUITE_NAMES = ("functoriality", "koszul-d2", "independence", "four-term")


def random_matrix(rng: random.Random, rows: int, cols: int, lo: int = -3, hi: int = 3) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def random_unimodular(n: int, rng: random.Random, steps: Optional[int] = None) -> IntMatrix:
    """A random determinant +-1 matrix built from elementary operations."""
    if steps is None:
        steps = 2 * n + 2
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if op == 0:
            q = rng.choice([-2, -1, 1, 2])
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        elif op == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return IntMatrix.from_rows(m, cols=n)


def random_presentation(f_rank: int, h_rank: int, rng: random.Random) -> PresentationPair:
    """A random injective inclusion Z^h_rank -> Z^f_rank."""
    if h_rank > f_rank:
        raise ValueError("need h_rank <= f_rank for an injective inclusion")
    core = [[0] * h_rank for _ in range(f_rank)]
    for i in range(h_rank):
        core[i][i] = rng.choice([1, 2, 3, -1, -2])
    left = random_unimodular(f_rank, rng)
    right = random_unimodular(h_rank, rng)
    inclusion = left @ IntMatrix.from_rows(core, cols=h_rank) @ right
    return PresentationPair(h_rank, f_rank, inclusion)


_ALL_KINDS = (PowerKind.TENSOR, PowerKind.SYM, PowerKind.EXT, PowerKind.DIV)


def _div_contraction(n: int, r: int) -> IntMatrix:
    """The contraction Div^n(Z^r) -> Div^(n-1)(Z^r) (x) Z^r that kos_prime
    differentiates by, read from koszul._div_contractions: a -> the sum of
    coefficient * rest (x) e_gen over the (gen, rest, coefficient) it lists."""
    src = basis(PowerKind.DIV, n, r)
    rows = [[0] * len(src) for _ in range(len(basis(PowerKind.DIV, n - 1, r)) * r)]
    for j, mono in enumerate(src):
        for gen, rest, c in _div_contractions(mono):
            rows[basis_index(PowerKind.DIV, n - 1, r, rest) * r + gen][j] = c
    return IntMatrix.from_rows(rows, cols=len(src))


def _mode_products(a: IntMatrix, n: int, x: IntMatrix) -> IntMatrix:
    """(a (x) ... (x) a) @ x with n factors of a, as n mode products.

    The rows of x are words over range(a.cols), first letter major, and
    a.cols > 0. Each product applies a to the leading letter of every row
    index and moves that letter to the end, so after n products every
    letter is back in place. Each row is packed into one integer with a
    signed 64-bit slot per column (Kronecker substitution), so a row
    operation is one big-integer multiply-add. No entry of any partial sum
    exceeds max(row abs-sum of a, 1)**n * max|x|, and InputError is raised
    unless that is below 2**63, which keeps every slot apart.
    """
    reach = max(1, max((sum(map(abs, row)) for row in a.entries), default=0)) ** n
    if reach * max(map(abs, chain.from_iterable(x.entries)), default=0) >> 63:
        raise InputError("mode product entries may not fit in 64-bit slots")
    slots = Struct(f"<{x.cols}q")
    ones = int.from_bytes(slots.pack(*[1] * x.cols), "little")
    rows = [int.from_bytes(slots.pack(*row), "little") for row in x.entries]
    # the bytes read a negative slot v as v + 2**64: take that 2**64 back
    # off, as a 1 in the next slot up
    rows = [u - ((u >> 63 & ones) << 64) for u in rows]
    for _ in range(n):
        rest = len(rows) // a.cols
        rows = [sum(map(mul, arow, rows[s::rest])) for s in range(rest) for arow in a.entries]
    # + 2**63 makes every slot nonnegative, so no slot borrows from the
    # next, and the xor leaves each slot's two's complement bytes
    bias = ones << 63
    out = tuple(slots.unpack(((p + bias) ^ bias).to_bytes(slots.size, "little")) for p in rows)
    return IntMatrix(a.rows**n, x.cols, out)


def run_functoriality(seed: int) -> dict:
    """Composition, identity, determinant, contraction and norm naturality checks.

    The tensor-power composites are checked by mode products, which apply a
    to one tensor factor at a time and so do not assume the rule they test.
    """
    rng = random.Random(f"functoriality:{seed}")
    failures: list[str] = []
    cases = 0

    for trial in range(200):
        n = rng.randint(1, 4)
        r1, r2, r3 = (rng.randint(1, 4) for _ in range(3))
        a = random_matrix(rng, r1, r2)
        b = random_matrix(rng, r2, r3)
        ab = a @ b
        for kind in _ALL_KINDS:
            f = FunctorKind(kind, n)
            cases += 1
            if kind is PowerKind.TENSOR:
                composite = _mode_products(a, n, induced_map(f, b))
            else:
                composite = induced_map(f, a) @ induced_map(f, b)
            if induced_map(f, ab) != composite:
                failures.append(f"composition failed: trial {trial}, {f}")
        if trial % 10 == 0:
            for kind in _ALL_KINDS:
                f = FunctorKind(kind, n)
                cases += 1
                image = induced_map(f, IntMatrix.identity(r2))
                if image != IntMatrix.identity(image.rows):
                    failures.append(f"identity not preserved: trial {trial}, {f}")

    for trial in range(50):
        k = rng.randint(1, 4)
        m = random_matrix(rng, k, k, -5, 5)
        cases += 1
        top = induced_map(FunctorKind(PowerKind.EXT, k), m)
        if top.entries != ((det(m),),):
            failures.append(f"top exterior power is not the determinant: trial {trial}")

    for trial in range(50):
        n = rng.randint(1, 4)
        r1, r2 = rng.randint(1, 4), rng.randint(1, 4)
        m = random_matrix(rng, r2, r1)
        cases += 1
        div = induced_map(FunctorKind(PowerKind.DIV, n), m)
        below = IntMatrix.identity(1) if n == 1 else induced_map(FunctorKind(PowerKind.DIV, n - 1), m)
        if _kron(below, m) @ _div_contraction(n, r1) != _div_contraction(n, r2) @ div:
            failures.append(f"divided-power contraction naturality failed: trial {trial}")
        cases += 1
        sym = induced_map(FunctorKind(PowerKind.SYM, n), m)
        if sym @ norm_diagonal(n, r1) != norm_diagonal(n, r2) @ div:
            failures.append(f"norm naturality failed: trial {trial}")

    return {
        "suite": "functoriality",
        "seed": seed,
        "cases": cases,
        "failures": failures,
        "passed": not failures,
    }


def run_koszul_d2(seed: int) -> dict:
    """Construct all three complexes over random presentations; d(d(x)) = 0
    is enforced by construction, and the term ranks are rechecked."""
    rng = random.Random(f"koszul-d2:{seed}")
    failures: list[str] = []
    cases = 0
    for trial in range(100):
        f_rank = rng.randint(1, 4)
        h_rank = rng.randint(0, f_rank)
        n = rng.randint(1, 4)
        pres = random_presentation(f_rank, h_rank, rng)
        for name, builder in (("kos", kos), ("kos_prime", kos_prime), ("tensor", tensor_complex)):
            cases += 1
            try:
                complex_ = builder(pres, n)
            except ComplexValidityError as err:
                failures.append(f"trial {trial} {name}: {err}")
                continue
            if name == "tensor":
                expected = tuple(
                    math.comb(n, p) * h_rank**p * f_rank ** (n - p) for p in range(n + 1)
                )
                if complex_.ranks != expected:
                    failures.append(f"trial {trial} tensor ranks {complex_.ranks} != {expected}")
    return {
        "suite": "koszul-d2",
        "seed": seed,
        "cases": cases,
        "failures": failures,
        "passed": not failures,
    }


_INDEPENDENCE_GROUPS = (
    FgAbGroup(0, (2,)),
    FgAbGroup(0, (4,)),
    FgAbGroup(0, (6,)),
    FgAbGroup(0, (2, 4)),
    FgAbGroup(1, (3,)),
)


def run_independence(seed: int) -> dict:
    """Derived functor values across padded presentations of the same group."""
    rng = random.Random(f"independence:{seed}")
    failures: list[str] = []
    details: list[dict] = []
    cases = 0
    for group in _INDEPENDENCE_GROUPS:
        for kind in (PowerKind.SYM, PowerKind.EXT, PowerKind.TENSOR):
            for n in (2, 3):
                f = FunctorKind(kind, n)
                cases += 1
                presentations = [presentation_from_group(group, p) for p in (0, 1, 2)]
                presentations += [
                    random_padded_presentation(group, rng.randint(1, 2), rng)
                    for _ in range(5)
                ]
                reference = derived_from_presentation(f, presentations[0]).values
                ok = True
                for idx, pres in enumerate(presentations[1:], start=1):
                    values = derived_from_presentation(f, pres).values
                    if values != reference:
                        ok = False
                        failures.append(
                            f"{f} on {group}: presentation {idx} gave "
                            f"{[str(v) for v in values]} != {[str(v) for v in reference]}"
                        )
                details.append(
                    {
                        "group": str(group),
                        "functor": str(f),
                        "values": [str(v) for v in reference],
                        "presentations": len(presentations),
                        "passed": ok,
                    }
                )
    return {
        "suite": "independence",
        "seed": seed,
        "cases": cases,
        "failures": failures,
        "details": details,
        "passed": not failures,
    }


def run_four_term(
    budget: int,
    only_preset: Optional[str] = None,
    only_n: Optional[int] = None,
) -> dict:
    """4-term sequence checks plus the Fox/Magnus identities on all presets.

    only_preset / only_n restrict the run to one bundled group or one
    sequence degree; the full sweep runs when both are None.
    """
    failures: list[str] = []
    details: list[dict] = []
    cases = 0
    reference = None
    for name in PRESET_NAMES if only_preset is None else (only_preset,):
        preset = load_preset(name)
        coeff = GModuleFree.trivial(preset.table, 1)
        for pres_idx, pres in enumerate(preset.presentations):
            label = f"{name}/presentation{pres_idx}"
            ms = pres.magnus
            order, gens = preset.table.order, len(pres.generators)

            cases += 1
            expected_rank = order * gens - order + 1
            if ms.relation_module.rank != expected_rank:
                failures.append(
                    f"{label}: relation module rank {ms.relation_module.rank} != {expected_rank}"
                )
            cases += 1
            if not canonical_form(ms.sigma).is_trivial():
                failures.append(f"{label}: sigma is not surjective")
            for ridx, relator in enumerate(pres.relators):
                cases += 1
                stacked = []
                for s in range(gens):
                    stacked.extend(fox_derivative(relator, s, pres))
                image = ms.sigma @ IntMatrix.column(stacked)
                if not image.is_zero():
                    failures.append(f"{label}: Fox vector of relator {ridx} is not in ker sigma")

            degrees = (1, 2) if preset.table.is_cyclic() else (1,)
            for n in degrees if only_n is None else (only_n,):
                cases += 1
                report = four_term_report(pres, coeff, n, budget=budget)
                if (name, pres_idx, n) == ("Z2", 0, 1):
                    reference = report
                quadruple = [str(report.a), str(report.b), str(report.c), str(report.d)]
                if not report.passed:
                    failures.append(f"{label} n={n}: checks failed on {quadruple}")
                details.append(
                    {
                        "group": name,
                        "presentation": pres_idx,
                        "n": n,
                        "quadruple": quadruple,
                        "rank_check": report.rank_check,
                        "product_check": report.product_check,
                        "divisibility_check": report.divisibility_check,
                        "passed": report.passed,
                    }
                )

    if reference is not None:
        # Frozen reference: the degree-1 sequence of the one-relator Z/2
        # presentation is 0 -> 0 -> Z -> Z -> Z/2 -> 0.
        cases += 1
        expected = ("0", "Z", "Z", "Z/2")
        got = (str(reference.a), str(reference.b), str(reference.c), str(reference.d))
        if got != expected:
            failures.append(f"Z2 reference quadruple {got} != {expected}")

    return {
        "suite": "four-term",
        "cases": cases,
        "failures": failures,
        "details": details,
        "passed": not failures,
    }


def run_suite(name: str, seed: int, budget: int) -> dict:
    if name == "functoriality":
        return run_functoriality(seed)
    if name == "koszul-d2":
        return run_koszul_d2(seed)
    if name == "independence":
        return run_independence(seed)
    if name == "four-term":
        return run_four_term(budget)
    raise ValueError(f"unknown suite {name!r}")


def run_all(seed: int, budget: int) -> list[dict]:
    return [run_suite(name, seed, budget) for name in SUITE_NAMES]

"""Acceptance checks, one test per criterion.

Each test prints a single `criterion N (name): PASS|FAIL` line so the run
log doubles as the acceptance report. All randomness is seeded; every
assertion is exact (integer equality / group isomorphism by canonical
form). The whole module runs in well under five minutes.
"""

import hashlib
import json
import random
from itertools import combinations
from math import comb, gcd

from lattice_oracle import submatrix

from exacthom.abelian import FgAbGroup
from exacthom.cli import main
from exacthom.grouphom import (
    FiniteGroupTable,
    GModuleFree,
    four_term_report,
    fox_derivative,
    homology_bar,
    homology_cyclic,
    magnus_sequence,
)
from exacthom.koszul import derived, power_of_group
from exacthom.linalg import IntMatrix, det, snf
from exacthom.powers import FunctorKind, PowerKind
from exacthom.presets import load_preset
from exacthom.verify import run_functoriality, run_independence, run_koszul_d2
from exacthom.abelian import canonical_form


def _report(num, name, ok, detail=""):
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


def test_criterion_1_snf_suite():
    rng = random.Random("acceptance:snf")
    failures = 0
    oracle_checked = 0
    for _ in range(500):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        a = IntMatrix.from_rows(
            [[rng.randint(-100, 100) for _ in range(cols)] for _ in range(rows)],
            cols=cols,
        )
        dec = snf(a)
        if dec.u @ a @ dec.v != dec.d:
            failures += 1
            continue
        if abs(det(dec.u)) != 1 or abs(det(dec.v)) != 1:
            failures += 1
            continue
        diag = [x for x in dec.diagonal if x]
        if any(y % x for x, y in zip(diag, diag[1:])):
            failures += 1
            continue
        if rows <= 5 and cols <= 5:
            oracle_checked += 1
            prefix = 1
            for k in range(1, min(rows, cols) + 1):
                g = 0
                for rr in combinations(range(rows), k):
                    for cc in combinations(range(cols), k):
                        g = gcd(g, det(submatrix(a, rr, cc)))
                if k <= len(diag):
                    prefix *= diag[k - 1]
                    if prefix != g:
                        failures += 1
                elif g != 0:
                    failures += 1
    ok = failures == 0
    assert _report(
        1, "SNF suite", ok, f"500 matrices, {oracle_checked} minor-oracle checks"
    )


def test_criterion_2_functor_calculus():
    report = run_functoriality(42)
    assert _report(
        2, "functor calculus", report["passed"], f"{report['cases']} cases"
    ), report["failures"][:5]


def test_criterion_3_koszul_validity():
    report = run_koszul_d2(42)
    assert _report(
        3, "Koszul d.d = 0", report["passed"], f"{report['cases']} cases"
    ), report["failures"][:5]


def test_criterion_4_derived_ground_truth():
    ok = True
    # rank-1 hand computation: Kos over Z --m--> Z gives, for n = 2,
    #   sym:    Z --m--> Z   in degrees 1..0    => (Z/m, 0)
    #   ext:    Z --m--> Z   in degrees 2..1    => (0, Z/m)
    #   tensor: Z -(-m,m)-> Z^2 -(m,m)-> Z      => (Z/m, Z/m)
    for m in (2, 3, 4, 6):
        zm = FgAbGroup(0, (m,))
        zero = FgAbGroup(0)
        ok &= derived(FunctorKind(PowerKind.SYM, 2), zm).values == (zm, zero, zero)
        ok &= derived(FunctorKind(PowerKind.EXT, 2), zm).values == (zero, zm, zero)
        ok &= derived(FunctorKind(PowerKind.TENSOR, 2), zm).values == (zm, zm, zero)
    # free inputs: everything concentrated in degree 0 with the known rank
    dims = {
        PowerKind.TENSOR: lambda r, n: r**n,
        PowerKind.SYM: lambda r, n: comb(r + n - 1, n),
        PowerKind.EXT: lambda r, n: comb(r, n),
    }
    for r in (0, 1, 2, 3):
        free = FgAbGroup(r)
        for kind, formula in dims.items():
            for n in (1, 2, 3):
                values = derived(FunctorKind(kind, n), free).values
                ok &= values[0] == FgAbGroup(formula(r, n))
                ok &= all(v == FgAbGroup(0) for v in values[1:])
    assert _report(4, "derived ground truth", ok)


def test_criterion_5_presentation_independence():
    report = run_independence(42)
    assert _report(
        5,
        "presentation independence",
        report["passed"],
        f"{report['cases']} group/functor cases",
    ), report["failures"][:5]


def test_criterion_6_group_homology_ground_truth():
    ok = True
    for m in (2, 3, 4):
        table = FiniteGroupTable.cyclic(m)
        coeff = GModuleFree.trivial(table, 1)
        expected = [
            FgAbGroup(1),
            FgAbGroup(0, (m,)),
            FgAbGroup(0),
            FgAbGroup(0, (m,)),
            FgAbGroup(0),
        ]
        for i, want in enumerate(expected):
            periodic = homology_cyclic(coeff, i)
            bar = homology_bar(coeff, i)
            ok &= periodic == want and bar == want
    v4 = FiniteGroupTable.from_mult([[i ^ j for j in range(4)] for i in range(4)])  # Z2 x Z2
    ok &= homology_bar(GModuleFree.trivial(v4, 1), 1) == FgAbGroup(0, (2, 2))
    assert _report(6, "group homology ground truth", ok)


def test_criterion_7_magnus_fox():
    ok = True
    for name in ("Z2", "Z3", "Z4", "Z2xZ2"):
        preset = load_preset(name)
        for pres in preset.presentations:
            ms = magnus_sequence(pres)
            order, gens = preset.table.order, len(pres.generators)
            ok &= ms.relation_module.rank == order * gens - order + 1
            ok &= canonical_form(ms.sigma).is_trivial()
            for relator in pres.relators:
                stacked = []
                for s in range(gens):
                    stacked.extend(fox_derivative(relator, s, pres))
                ok &= (ms.sigma @ IntMatrix.column(stacked)).is_zero()
    assert _report(7, "Magnus/Fox identities", ok)


def test_criterion_8_four_term_checks():
    ok = True
    for name in ("Z2", "Z3", "Z4"):
        preset = load_preset(name)
        coeff = GModuleFree.trivial(preset.table, 1)
        for pres in preset.presentations:
            for n in (1, 2):
                ok &= four_term_report(pres, coeff, n).passed
    z2 = load_preset("Z2")
    ref = four_term_report(
        z2.presentations[0], GModuleFree.trivial(z2.table, 1), 1
    )
    ok &= (ref.a, ref.b, ref.c, ref.d) == (
        FgAbGroup(0),
        FgAbGroup(1),
        FgAbGroup(1),
        FgAbGroup(0, (2,)),
    )
    assert _report(8, "4-term sequence checks", ok)


_VERIFY_ALL_SHA256 = "62a87e27e3cb8da86201dc7d172616d1f2db0ffc61ab740bf3f4da330ebfa22d"


def test_criterion_9_determinism(tmp_path):
    argv = ["verify", "all", "--seed", "42", "--format", "json"]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code1 = main(argv + ["--output", str(first)])
    code2 = main(argv + ["--output", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    passed = json.loads(first.read_text())["passed"]
    # the bytes are pinned too, so a change that keeps both runs equal but
    # moves the report (a new draw, a reordered case) is caught
    pinned = hashlib.sha256(first.read_bytes()).hexdigest() == _VERIFY_ALL_SHA256
    ok = code1 == 0 and code2 == 0 and identical and passed and pinned
    assert _report(9, "deterministic verify reports", ok, "byte-identical")

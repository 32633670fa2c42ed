import random

import pytest

import exacthom.grouphom as grouphom
import exacthom.koszul as koszul
import exacthom.powers as powers
import exacthom.verify as verify
from exacthom.abelian import FgAbGroup
from exacthom.errors import InputError
from exacthom.linalg import IntMatrix, det
from exacthom.verify import (
    SUITE_NAMES,
    random_presentation,
    random_unimodular,
    run_four_term,
    run_functoriality,
    run_koszul_d2,
    run_suite,
)


def test_random_unimodular():
    rng = random.Random("verify-unimodular")
    for _ in range(20):
        n = rng.randint(1, 5)
        u = random_unimodular(n, rng)
        assert abs(det(u)) == 1


def test_random_presentation():
    rng = random.Random("verify-presentation")
    for _ in range(20):
        f_rank = rng.randint(1, 4)
        h_rank = rng.randint(0, f_rank)
        pres = random_presentation(f_rank, h_rank, rng)
        assert (pres.h_rank, pres.f_rank) == (h_rank, f_rank)
        pres.group()  # canonical form must be computable
    with pytest.raises(ValueError):
        random_presentation(1, 2, rng)


def test_suite_reports_are_deterministic():
    a = run_koszul_d2(7)
    b = run_koszul_d2(7)
    assert a == b
    assert a["suite"] == "koszul-d2" and a["seed"] == 7
    assert a["passed"] and not a["failures"]
    assert run_koszul_d2(8)["passed"]


def test_contraction_naturality_catches_a_wrong_sym(monkeypatch):
    # Div^n(m) is Sym^n(m^T)^T, so a wrong Sym^n also makes Div^n wrong;
    # the contraction case must see it, not only the composition cases
    real = powers._product_induced

    def off_by_one(kind, n, m):
        out = real(kind, n, m)
        if kind is not powers.PowerKind.SYM or n < 2 or not out.rows or not out.cols:
            return out
        rows = [list(row) for row in out.entries]
        rows[0][0] += 1
        return IntMatrix.from_rows(rows, cols=out.cols)

    monkeypatch.setattr(powers, "_product_induced", off_by_one)
    failures = run_functoriality(42)["failures"]
    assert any(f.startswith("divided-power contraction naturality failed") for f in failures)


def test_functoriality_checks_the_contraction_kos_prime_uses(monkeypatch):
    # a coefficient a.count(gen) in koszul._div_contractions turns
    # L_1 Ext^2(Z/4) into Z/8; the naturality check reads the same
    # contractions and must fail. verify binds the name when it is
    # imported, so both names are patched, as an edit of the source would
    def counted(a):
        return [(gen, powers.div_contract(a, gen), a.count(gen)) for gen in dict.fromkeys(a)]

    monkeypatch.setattr(koszul, "_div_contractions", counted)
    monkeypatch.setattr(verify, "_div_contractions", counted)
    ext2 = koszul.derived(powers.FunctorKind(powers.PowerKind.EXT, 2), FgAbGroup(0, (4,)))
    assert ext2.values[1] == FgAbGroup(0, (8,))
    failures = run_functoriality(42)["failures"]
    assert any(f.startswith("divided-power contraction naturality failed") for f in failures)


@pytest.mark.parametrize("seed", [7, 11])
def test_functoriality_passes_on_other_seeds(seed):
    # the tensor composites pack each row into one integer; run them on
    # other seeds' matrices as well as the hashed seed 42
    report = run_functoriality(seed)
    assert report["passed"], report["failures"][:5]
    assert report["cases"] == 1030


def test_composition_catches_a_wrong_tensor_power(monkeypatch):
    # the tensor composites are checked by mode products, not by __matmul__;
    # an off-by-one tensor power must still fail them
    real = powers._tensor_induced

    def off_by_one(n, m):
        out = real(n, m)
        if n < 2 or not out.rows or not out.cols:
            return out
        rows = [list(row) for row in out.entries]
        rows[0][0] += 1
        return IntMatrix.from_rows(rows, cols=out.cols)

    monkeypatch.setattr(powers, "_tensor_induced", off_by_one)
    failures = run_functoriality(42)["failures"]
    composition = [f for f in failures if f.startswith("composition failed")]
    assert composition and all(", tensor^" in f for f in composition)


def test_mode_products_match_the_plain_product():
    # x is random, not a Kronecker power, so this checks the helper on
    # every input the composites could give it
    rng = random.Random("verify-mode-products")
    cases = []
    for _ in range(200):
        n = rng.randint(1, 4)
        r1, r2 = rng.randint(1, 4), rng.randint(1, 4)
        a = verify.random_matrix(rng, r1, r2)
        cases.append((a, n, verify.random_matrix(rng, r2**n, rng.randint(1, 6), -9, 9)))
    # a signed permutation keeps the slots' extreme values, so every sign
    # bit of the packed rows is hit
    extremes = [2**63 - 1, -(2**63 - 1), 2**62, -(2**62)]
    signed_permutation = IntMatrix.from_rows([[0, -1, 0], [0, 0, 1], [-1, 0, 0]])
    big = IntMatrix.from_rows([[extremes[(i + j) % 4] for j in range(8)] for i in range(9)])
    cases.append((signed_permutation, 2, big))
    cases.append((verify.random_matrix(rng, 3, 2), 3, IntMatrix.zeros(8, 0)))
    cases.append((IntMatrix.from_rows([[2, -1], [0, 0], [1, 3]]), 2, verify.random_matrix(rng, 4, 3)))
    # the suite's extreme input: (4 * 3)**4 * 3**4 = 1 679 616
    threes = IntMatrix.from_rows([[-3] * 4] * 4)
    cases.append((threes, 4, powers.induced_map(powers.FunctorKind(powers.PowerKind.TENSOR, 4), threes)))
    for a, n, x in cases:
        power = powers.induced_map(powers.FunctorKind(powers.PowerKind.TENSOR, n), a)
        assert verify._mode_products(a, n, x) == power @ x


def test_mode_products_refuse_entries_past_their_slots():
    with pytest.raises(InputError):
        verify._mode_products(IntMatrix.from_rows([[2]]), 1, IntMatrix.from_rows([[2**62]]))
    # a zero a still packs x itself
    with pytest.raises(InputError):
        verify._mode_products(IntMatrix.zeros(2, 2), 1, IntMatrix.from_rows([[1], [2**63]]))


def test_determinant_check_catches_a_wrong_ext_sign(monkeypatch):
    # the top exterior power comes from the multiplication table and det
    # from Bareiss elimination, so one flipped sign of e_1 ^ e_0 in the
    # table must show as a wrong determinant
    real = powers._mult_table

    def flipped(kind, k, r):
        table = real(kind, k, r)
        if kind is not powers.PowerKind.EXT or k != 1 or r < 2:
            return table
        index, sign = table[0][1]
        return ((table[0][0], (index, -sign)) + table[0][2:],) + table[1:]

    monkeypatch.setattr(powers, "_mult_table", flipped)
    failures = run_functoriality(42)["failures"]
    assert any(f.startswith("top exterior power is not the determinant") for f in failures)


def test_four_term_filters():
    report = run_four_term(10**6, only_preset="Z3", only_n=2)
    assert report["passed"]
    assert {d["group"] for d in report["details"]} == {"Z3"}
    assert {d["n"] for d in report["details"]} == {2}
    with pytest.raises(InputError):
        run_four_term(10**6, only_preset="Z9")
    with pytest.raises(InputError):
        run_four_term(10**6, only_n=0)


def test_four_term_reference_reuses_the_loop_report(monkeypatch):
    # the frozen Z2 check reads the Z2/presentation0, n = 1 report of the
    # loop instead of computing it again
    calls = []
    real = verify.four_term_report

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "four_term_report", spy)
    report = run_four_term(10**6, only_preset="Z2", only_n=1)
    assert len(calls) == 2  # one per Z2 presentation
    # 4 + 5 checks on the two presentations, and the reference still counts
    assert report["passed"] and report["cases"] == 10


def test_four_term_computes_one_magnus_sequence_per_presentation(monkeypatch):
    # each presentation keeps its Magnus sequence, which the suite's checks
    # and four_term_report share, and A and D come from the periodic or bar
    # route, which need none
    calls = []
    real = grouphom.magnus_sequence

    def spy(pres):
        calls.append(pres)
        return real(pres)

    monkeypatch.setattr(grouphom, "magnus_sequence", spy)
    report = run_four_term(10**6)
    assert report["passed"] and len(report["details"]) == 14
    assert len(calls) == 8  # two presentations for each of four presets


def test_run_suite_dispatch():
    assert set(SUITE_NAMES) == {"functoriality", "koszul-d2", "independence", "four-term"}
    report = run_suite("four-term", seed=42, budget=10**6)
    assert report["suite"] == "four-term"
    with pytest.raises(ValueError):
        run_suite("nope", 42, 10**6)

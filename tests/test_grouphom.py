import functools
import itertools
import random
import time

import pytest
from bar_oracle import full_bar_differential

from exacthom.abelian import FgAbGroup, canonical_form, homology_at
from exacthom.errors import InputError, ResourceBudgetError
from exacthom.grouphom import (
    FiniteGroupTable,
    FpGroupPresentation,
    GModuleFree,
    _bar_differential,
    augmentation_ideal,
    coinvariants,
    four_term_report,
    fox_derivative,
    group_homology,
    group_ring,
    h1_free,
    homology_bar,
    homology_cyclic,
    magnus_sequence,
    tensor_gmodule,
)
from exacthom.linalg import IntMatrix, hstack, smith_diagonal
from exacthom.presets import PRESET_NAMES, load_preset

Z2 = FiniteGroupTable.cyclic(2)
Z3 = FiniteGroupTable.cyclic(3)
Z4 = FiniteGroupTable.cyclic(4)
V4 = FiniteGroupTable.direct_product(Z2, Z2)


def _fold(m, n, onto):
    """m (x) (... (x) (m (x) onto)): n tensor_gmodule steps onto a module."""
    for _ in range(n):
        onto = tensor_gmodule(m, onto)
    return onto


def test_table_validation():
    with pytest.raises(InputError):
        FiniteGroupTable.from_mult([[0, 1], [1, 1]])  # 1 has no inverse row
    with pytest.raises(InputError):
        FiniteGroupTable.from_mult([[1, 0], [0, 1]])  # identity is not 0
    # non-associative magma on 3 points
    with pytest.raises(InputError):
        FiniteGroupTable.from_mult([[0, 1, 2], [1, 0, 0], [2, 0, 1]])
    with pytest.raises(InputError):
        FiniteGroupTable.from_mult([[0, 5], [5, 0]])  # out of range


def test_table_basics():
    assert Z4.inverse == (0, 3, 2, 1)
    assert [Z4.element_order(g) for g in range(4)] == [1, 4, 2, 4]
    assert Z4.generator() == 1
    assert Z4.is_cyclic()
    assert V4.order == 4
    assert V4.generator() is None
    assert not V4.is_cyclic()
    assert FiniteGroupTable.cyclic(1).generator() == 0
    assert Z4.generating_set == (1,)
    assert V4.generating_set == (1, 2)
    assert FiniteGroupTable.cyclic(1).generating_set == ()


def test_presentation_validation():
    FpGroupPresentation.from_strings(("a",), ("aa",), Z2, (1,))
    with pytest.raises(InputError):
        # relator does not evaluate to the identity
        FpGroupPresentation.from_strings(("a",), ("a",), Z2, (1,))
    with pytest.raises(InputError):
        # assigned elements do not generate
        FpGroupPresentation.from_strings(("a",), ("aa",), Z4, (2,))
    with pytest.raises(InputError):
        FpGroupPresentation.from_strings(("a", "a"), (), Z2, (1, 1))
    with pytest.raises(InputError):
        FpGroupPresentation.from_strings(("a",), ("ab",), Z2, (1,))


@pytest.mark.parametrize("name", ["ab", "1", " ", "", "A", "\u00e9"])
def test_generator_names_are_lowercase_letters(name):
    # relator strings spell one lowercase letter per generator (uppercase
    # is the inverse), so no other name can be read back
    with pytest.raises(InputError, match=f"generator {name!r} is not one lowercase ASCII letter"):
        FpGroupPresentation.from_strings((name,), (), Z2, (1,))
    with pytest.raises(InputError, match=f"generator {name!r}"):
        FpGroupPresentation((name,), (), Z2, (1,))


def test_presentation_words():
    pres = FpGroupPresentation.from_strings(("a", "b"), ("aaaa", "bAA"), Z4, (1, 2))
    assert pres.parse_word("aB") == ((0, 1), (1, -1))
    assert pres.evaluate(pres.parse_word("ab")) == 3
    assert pres.evaluate(pres.parse_word("A")) == 3
    assert pres.evaluate(()) == 0


def test_gmodule_validation():
    with pytest.raises(InputError):
        GModuleFree(Z2, 1, (IntMatrix.identity(1), IntMatrix.from_rows([[2]])))
    with pytest.raises(InputError):
        GModuleFree(Z2, 1, (IntMatrix.from_rows([[2]]), IntMatrix.identity(1)))
    m = GModuleFree.trivial(Z3, 2)
    assert m.rank == 2 and all(a == IntMatrix.identity(2) for a in m.action)


@pytest.mark.parametrize("rank", [40, 41])
def test_gmodule_group_law_checked_at_every_rank(rank):
    # 1 and 5 act as diag(-1, 1, ..., 1), every other element as the
    # identity, so rho(1) rho(2) != rho(3); every (g, g^-1) pair composes
    # to the identity, so a check on inverse pairs alone would accept it
    flip = IntMatrix.diagonal([-1] + [1] * (rank - 1))
    ident = IntMatrix.identity(rank)
    action = tuple(flip if g in (1, 5) else ident for g in range(6))
    with pytest.raises(InputError):
        GModuleFree(FiniteGroupTable.cyclic(6), rank, action)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_built_modules_pass_the_full_check(preset):
    # magnus_sequence and tensor_gmodule skip GModuleFree's check; run it
    for pres in load_preset(preset).presentations:
        relation = magnus_sequence(pres).relation_module
        built = [relation]
        for coeff in (GModuleFree.trivial(pres.target, 1), augmentation_ideal(pres.target)):
            built += [_fold(relation, n, coeff) for n in range(3)]
        for m in built:
            assert GModuleFree(m.group, m.rank, m.action) == m


def test_group_ring_and_augmentation():
    zg = group_ring(Z2)
    assert zg.action[1].entries == ((0, 1), (1, 0))
    delta = augmentation_ideal(Z2)
    assert delta.rank == 1
    assert delta.action[1].entries == ((-1,),)
    d3 = augmentation_ideal(Z3)
    # t(t-1) = t^2 - t = (t^2 - 1) - (t - 1)
    assert d3.action[1].transpose().entries[0] == (-1, 1)


def test_tensor_gmodule():
    zg = group_ring(Z2)
    sq = tensor_gmodule(zg, zg)
    assert sq.rank == 4
    assert coinvariants(sq) == FgAbGroup(2)  # ZG (x) ZG = ZG^2 as a G-module
    with pytest.raises(InputError):
        tensor_gmodule(zg, group_ring(Z3))


def test_fox_derivative_frozen():
    pres = FpGroupPresentation.from_strings(("a",), ("aa",), Z2, (1,))
    word = pres.parse_word("aa")
    # d(aa)/da = 1 + a
    assert fox_derivative(word, 0, pres) == [1, 1]
    # d(a^-1)/da = -a^-1 = -a over Z/2
    assert fox_derivative(pres.parse_word("A"), 0, pres) == [0, -1]
    assert fox_derivative((), 0, pres) == [0, 0]
    with pytest.raises(InputError):
        fox_derivative(word, 1, pres)


def test_fox_product_rule():
    preset = load_preset("Z4")
    pres = preset.presentations[1]
    table = pres.target
    zg = group_ring(table)
    rng = random.Random("grouphom-fox")
    letters = [(g, s) for g in range(len(pres.generators)) for s in (1, -1)]
    for _ in range(25):
        u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        v = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        for s in range(len(pres.generators)):
            du = fox_derivative(u, s, pres)
            dv = fox_derivative(v, s, pres)
            duv = fox_derivative(u + v, s, pres)
            shifted = zg.action[pres.evaluate(u)] @ IntMatrix.column(dv)
            assert duv == [a + b for a, b in zip(du, shifted.transpose().entries[0])]


def test_magnus_frozen_z2():
    pres = load_preset("Z2").presentations[0]
    ms = magnus_sequence(pres)
    assert ms.sigma.entries == ((1, -1),)
    assert ms.inclusion.entries == ((1,), (1,))
    assert ms.relation_module.rank == 1
    assert ms.relation_module.action[1] == IntMatrix.identity(1)


def test_magnus_rank_and_surjectivity():
    for name in ("Z2", "Z3", "Z4", "Z2xZ2"):
        preset = load_preset(name)
        for pres in preset.presentations:
            ms = magnus_sequence(pres)
            order, gens = preset.table.order, len(pres.generators)
            assert ms.relation_module.rank == order * gens - order + 1
            assert canonical_form(ms.sigma).is_trivial()
            # the inclusion is G-equivariant into ZG^gens
            zg = group_ring(preset.table)
            for g in range(order):
                # block diagonal: one copy of the regular action per generator
                big = IntMatrix.from_rows(
                    [
                        [0] * (order * i) + list(row) + [0] * (order * (gens - 1 - i))
                        for i in range(gens)
                        for row in zg.action[g].entries
                    ],
                    cols=order * gens,
                )
                assert big @ ms.inclusion == ms.inclusion @ ms.relation_module.action[g]


def test_fox_vectors_span_kernel():
    pres = load_preset("Z3").presentations[0]
    ms = magnus_sequence(pres)
    stacked = []
    for s in range(len(pres.generators)):
        stacked.extend(fox_derivative(pres.relators[0], s, pres))
    image = ms.sigma @ IntMatrix.column(stacked)
    assert image.is_zero()


def test_coinvariants():
    assert coinvariants(group_ring(Z3)) == FgAbGroup(1)
    assert coinvariants(GModuleFree.trivial(Z4, 2)) == FgAbGroup(2)
    assert coinvariants(augmentation_ideal(Z2)) == FgAbGroup(0, (2,))
    assert coinvariants(GModuleFree.trivial(FiniteGroupTable.cyclic(1), 3)) == FgAbGroup(3)


def _s3_presentation() -> FpGroupPresentation:
    """S3 as the permutations of three points, <a, b | aa, bbb, abab> with a
    a transposition and b a 3-cycle."""
    perms = list(itertools.permutations(range(3)))
    table = FiniteGroupTable.from_mult(
        [[perms.index(tuple(g[h[i]] for i in range(3))) for h in perms] for g in perms]
    )
    a = next(g for g in range(6) if table.element_order(g) == 2)
    b = next(g for g in range(6) if table.element_order(g) == 3)
    return FpGroupPresentation.from_strings(("a", "b"), ("aa", "bbb", "abab"), table, (a, b))


def _relabelled_z6_presentation() -> FpGroupPresentation:
    """Z/6 with label i standing for the residue labels[i], so that labels 1
    and 2 have orders 2 and 3 and the greedy generating set is (1, 2)."""
    labels = (0, 3, 2, 5, 4, 1)
    index = {r: i for i, r in enumerate(labels)}
    table = FiniteGroupTable.from_mult(
        [[index[(labels[i] + labels[j]) % 6] for j in range(6)] for i in range(6)]
    )
    return FpGroupPresentation.from_strings(("a",), ("aaaaaa",), table, (index[1],))


_PRESENTATIONS = {
    **{
        name: lambda name=name: load_preset(name).presentations[0]
        for name in ("Z2", "Z3", "Z4", "Z2xZ2")
    },
    "S3": _s3_presentation,
    "Z6-relabelled": _relabelled_z6_presentation,
    "trivial-no-generators": lambda: FpGroupPresentation((), (), FiniteGroupTable.cyclic(1), ()),
}

_MODULES = {
    "trivial": lambda pres: GModuleFree.trivial(pres.target, 1),
    "regular": lambda pres: group_ring(pres.target),
    "augmentation": lambda pres: augmentation_ideal(pres.target),
    "relation-squared": lambda pres: _fold(
        magnus_sequence(pres).relation_module, 2, GModuleFree.trivial(pres.target, 1)
    ),
    "rank-0": lambda pres: GModuleFree.trivial(pres.target, 0),
}


def _smith_cokernel(m: IntMatrix) -> FgAbGroup:
    diag = smith_diagonal(m)
    return FgAbGroup(m.rows - sum(1 for x in diag if x), tuple(x for x in diag if x > 1))


@pytest.mark.parametrize("group", sorted(_PRESENTATIONS))
@pytest.mark.parametrize("module", sorted(_MODULES))
def test_coinvariants_and_h1_match_all_elements_oracle(group, module):
    pres = _PRESENTATIONS[group]()
    m = _MODULES[module](pres)
    ident = IntMatrix.identity(m.rank)
    # coinvariants: the old route stacked g - 1 for every g != 1; the zero
    # block of g = 1 keeps the stack nonempty for the trivial group
    every = [m.action[g] - ident for g in range(m.group.order)]
    assert len(m.group.generating_set) < len(every)
    assert coinvariants(m) == _smith_cokernel(hstack(every))
    # h1_free: the kernel rank from one dense Smith diagonal; with no
    # generators the map Z^0 -> M has kernel 0
    blocks = [m.action[g] - ident for g in pres.assignment]
    stacked = hstack(blocks) if blocks else IntMatrix.zeros(m.rank, 0)
    kernel_rank = stacked.cols - sum(1 for x in smith_diagonal(stacked) if x)
    assert h1_free(pres, m) == FgAbGroup(kernel_rank)


def test_h1_free():
    pres = load_preset("Z2").presentations[0]
    assert h1_free(pres, GModuleFree.trivial(Z2, 1)) == FgAbGroup(1)
    assert h1_free(pres, group_ring(Z2)) == FgAbGroup(1)
    two_gen = load_preset("Z2xZ2").presentations[0]
    assert h1_free(two_gen, GModuleFree.trivial(V4, 1)) == FgAbGroup(2)
    with pytest.raises(InputError):
        h1_free(pres, GModuleFree.trivial(Z3, 1))


def test_homology_classical_table():
    for m, table in ((2, Z2), (3, Z3), (4, Z4)):
        coeff = GModuleFree.trivial(table, 1)
        expected = [
            FgAbGroup(1),
            FgAbGroup(0, (m,)),
            FgAbGroup(0),
            FgAbGroup(0, (m,)),
            FgAbGroup(0),
        ]
        for i, want in enumerate(expected):
            assert homology_cyclic(coeff, i) == want
            assert homology_bar(coeff, i) == want


def test_homology_regular_coefficients_acyclic():
    for table in (Z2, Z3):
        zg = group_ring(table)
        assert group_homology(zg, 0, method="periodic") == FgAbGroup(1)
        for i in (1, 2, 3):
            assert group_homology(zg, i, method="periodic") == FgAbGroup(0)
            assert group_homology(zg, i, method="bar") == FgAbGroup(0)


def test_homology_klein_four():
    coeff = GModuleFree.trivial(V4, 1)
    assert group_homology(coeff, 1, method="bar") == FgAbGroup(0, (2, 2))
    assert group_homology(coeff, 2, method="bar") == FgAbGroup(0, (2,))
    with pytest.raises(InputError):
        group_homology(coeff, 1, method="periodic")
    # auto falls back to the bar complex for non-cyclic tables
    assert group_homology(coeff, 1) == FgAbGroup(0, (2, 2))
    # Kunneth: H_5 = (Z/2)^4; the normalized d_6 is 243 x 729 entries, inside
    # the default budget (the full bar complex would need 1024 x 4096)
    assert group_homology(coeff, 5) == FgAbGroup(0, (2, 2, 2, 2))


def test_homology_trivial_group():
    one = FiniteGroupTable.cyclic(1)
    coeff = GModuleFree.trivial(one, 1)
    assert group_homology(coeff, 0, method="periodic") == FgAbGroup(1)
    for i in (1, 2):
        assert group_homology(coeff, i, method="periodic") == FgAbGroup(0)
        assert group_homology(coeff, i, method="bar") == FgAbGroup(0)


def test_homology_bar_budget():
    coeff = GModuleFree.trivial(Z4, 1)
    with pytest.raises(ResourceBudgetError):
        homology_bar(coeff, 3, budget=100)
    # H_3 needs d_4 on words of nonidentity letters: 3^3 x 3^4 = 2187 entries
    assert homology_bar(coeff, 3, budget=2187) == FgAbGroup(0, (4,))
    with pytest.raises(ResourceBudgetError, match="is 27x81 = 2187 entries, budget is 2186"):
        homology_bar(coeff, 3, budget=2186)
    with pytest.raises(InputError):
        group_homology(coeff, 1, method="nonsense")
    # 3^(10^8) would take minutes to form and cannot be printed: the sizes
    # are capped just above the budget and left out of the message
    start = time.perf_counter()
    for degree in (5000, 10**6, 10**8):
        with pytest.raises(ResourceBudgetError, match="has over 1000000 columns"):
            homology_bar(GModuleFree.trivial(V4, 1), degree)
    assert time.perf_counter() - start < 1


def _full_bar_homology(coeff: GModuleFree, i: int) -> FgAbGroup:
    d_in = full_bar_differential(coeff, i + 1)
    d_out = IntMatrix.zeros(0, coeff.rank) if i == 0 else full_bar_differential(coeff, i)
    return homology_at(d_in=d_in, d_out=d_out)


_BAR_GROUPS = {
    "trivial": lambda: FiniteGroupTable.cyclic(1),
    **{name: lambda make=make: make().target for name, make in _PRESENTATIONS.items()},
}

_BAR_MODULES = {
    "trivial": lambda table: GModuleFree.trivial(table, 1),
    "augmentation": augmentation_ideal,
    "regular": group_ring,
}

# full d_(i+1) has rank^2 |G|^(2i+1) entries; degree 3 with augmentation
# or regular coefficients over a group of order 6 (up to 10^7) is left out
_FULL_BAR_CAP = 300_000


def _bar_cases():
    for group, make in sorted(_BAR_GROUPS.items()):
        table = make()
        for module in sorted(_BAR_MODULES):
            rank = _BAR_MODULES[module](table).rank
            for i in range(4):
                if rank * rank * table.order ** (2 * i + 1) <= _FULL_BAR_CAP:
                    yield group, module, i


@pytest.mark.parametrize("group, module, degree", list(_bar_cases()))
def test_normalized_bar_matches_full_bar(group, module, degree):
    table = _BAR_GROUPS[group]()
    coeff = _BAR_MODULES[module](table)
    assert homology_bar(coeff, degree) == _full_bar_homology(coeff, degree)


@pytest.mark.parametrize("group", sorted(_BAR_GROUPS))
@pytest.mark.parametrize("module", sorted(_BAR_MODULES))
def test_normalized_bar_shapes_and_square_zero(group, module):
    table = _BAR_GROUPS[group]()
    coeff = _BAR_MODULES[module](table)
    base, rank = table.order - 1, coeff.rank
    diffs = [_bar_differential(coeff, k) for k in (1, 2, 3)]
    for k, d in enumerate(diffs, start=1):
        assert (d.rows, d.cols) == (rank * base ** (k - 1), rank * base**k)
    # the dense product is the oracle for the sparse d(d(x)) = 0 check
    dense = [IntMatrix(d.rows, d.cols, d.entries) for d in diffs]
    for lower, upper in zip(dense, dense[1:]):
        assert (lower @ upper).is_zero()


def test_four_term_z2_frozen():
    preset = load_preset("Z2")
    coeff = GModuleFree.trivial(preset.table, 1)
    report = four_term_report(preset.presentations[0], coeff, 1)
    assert (report.a, report.b, report.c, report.d) == (
        FgAbGroup(0),
        FgAbGroup(1),
        FgAbGroup(1),
        FgAbGroup(0, (2,)),
    )
    assert report.rank_check and report.divisibility_check
    assert report.product_check is None  # infinite middle groups
    assert report.passed


def test_four_term_presets():
    for name in ("Z2", "Z3"):
        preset = load_preset(name)
        coeff = GModuleFree.trivial(preset.table, 1)
        for pres in preset.presentations:
            for n in (1, 2):
                assert four_term_report(pres, coeff, n).passed
    with pytest.raises(InputError):
        four_term_report(
            load_preset("Z2").presentations[0],
            GModuleFree.trivial(Z3, 1),
            1,
        )
    with pytest.raises(InputError):
        four_term_report(load_preset("Z2").presentations[0],
                         GModuleFree.trivial(Z2, 1), 0)


def test_four_term_budget():
    # Z2's second presentation has rank R = 2*2 - 2 + 1 = 3, so R^(x)2 (x) Z
    # has rank 9 and one generator's coinvariant block is 9x9
    pres = load_preset("Z2").presentations[1]
    coeff = GModuleFree.trivial(Z2, 1)
    assert four_term_report(pres, coeff, 2, budget=81).passed
    with pytest.raises(ResourceBudgetError, match="is 9x9 = 81 entries, budget is 80"):
        four_term_report(pres, coeff, 2, budget=80)
    # rank R = 1 on the first presentation: only the n - 1 tensor steps count
    first = load_preset("Z2").presentations[0]
    assert four_term_report(first, coeff, 4, budget=4).passed
    with pytest.raises(ResourceBudgetError, match="degree n is over the budget of 4"):
        four_term_report(first, coeff, 5, budget=4)
    # Z2xZ2 has two generators in its generating set: 5^2 x 2*5^2
    klein = load_preset("Z2xZ2")
    klein_coeff = GModuleFree.trivial(klein.table, 1)
    with pytest.raises(ResourceBudgetError, match="is 25x50 = 1250 entries"):
        four_term_report(klein.presentations[0], klein_coeff, 2, budget=1249)


def test_four_term_middle_module_matches_tensor_power():
    # four_term_report builds R^n (x) M as R (x) (... (x) (R (x) M)); by the
    # associativity of the Kronecker product the actions, and so B, are those
    # of the plain tensor power (R (x) ... (x) R) (x) M
    for name in PRESET_NAMES:
        preset = load_preset(name)
        coeff = GModuleFree.trivial(preset.table, 1)
        for pres in preset.presentations:
            relation = magnus_sequence(pres).relation_module
            for n in (1, 2):
                plain = tensor_gmodule(functools.reduce(tensor_gmodule, [relation] * n), coeff)
                nested = _fold(relation, n, coeff)
                assert nested.action == plain.action
                assert four_term_report(pres, coeff, n).b == coinvariants(plain)


def test_trivial_group_presentation():
    one = FiniteGroupTable.cyclic(1)
    pres = FpGroupPresentation.from_strings(("a",), ("a",), one, (0,))
    ms = magnus_sequence(pres)
    assert ms.relation_module.rank == 1
    assert four_term_report(pres, GModuleFree.trivial(one, 1), 1).passed
    # no generators at all: R = 0, C = H_1(F, M) = 0 and B = 0
    bare = FpGroupPresentation((), (), one, ())
    assert magnus_sequence(bare).relation_module.rank == 0
    assert h1_free(bare, GModuleFree.trivial(one, 1)) == FgAbGroup(0)
    for n in (1, 2):
        report = four_term_report(bare, GModuleFree.trivial(one, 1), n)
        assert report.passed
        assert all(x.is_trivial() for x in (report.a, report.b, report.c, report.d))

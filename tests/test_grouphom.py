import copy
import functools
import itertools
import math
import random
import time
import tracemalloc

import pytest
from bar_oracle import full_bar_differential

from exacthom import grouphom
from exacthom.abelian import FgAbGroup, canonical_form, homology_at
from exacthom.errors import InputError, ResourceBudgetError
from exacthom.grouphom import (
    DEFAULT_BAR_BUDGET,
    FiniteGroupTable,
    FpGroupPresentation,
    GModuleFree,
    _bar_differential,
    _minus_one,
    augmentation_ideal,
    coinvariants,
    four_term_report,
    fox_derivative,
    group_homology,
    group_ring,
    h1_free,
    homology_bar,
    homology_cyclic,
    homology_four_term,
    magnus_sequence,
    tensor_gmodule,
)
from exacthom.linalg import IntMatrix, SparseMatrix, _kron, smith_diagonal
from exacthom.presets import PRESET_NAMES, load_preset

Z2 = FiniteGroupTable.cyclic(2)
Z3 = FiniteGroupTable.cyclic(3)
Z4 = FiniteGroupTable.cyclic(4)
V4 = FiniteGroupTable.from_mult([[i ^ j for j in range(4)] for i in range(4)])  # Z2 x Z2


def _dense(action) -> IntMatrix:
    """A stored module action as a dense IntMatrix, for arithmetic."""
    return IntMatrix(action.rows, action.cols, action.entries)


def _minus_identity(action) -> IntMatrix:
    """rho(g) - 1, dense, from a stored module action."""
    rows = [list(row) for row in action.entries]
    for i, row in enumerate(rows):
        row[i] -= 1
    return IntMatrix(action.rows, action.cols, tuple(map(tuple, rows)))


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


def test_table_validation_rejects_every_swap_of_two_s3_entries():
    # a group table is a Latin square, so swapping two different entries
    # outside the identity's row and column never leaves a group; the
    # associativity check reads the generators' columns only and must
    # still see every one of them
    mult = [list(row) for row in _s3_presentation().target.mult]
    cells = [(i, j) for i in range(1, 6) for j in range(1, 6)]
    swaps = 0
    for (i, j), (k, l) in itertools.combinations(cells, 2):
        if mult[i][j] != mult[k][l]:
            bad = [row[:] for row in mult]
            bad[i][j], bad[k][l] = bad[k][l], bad[i][j]
            with pytest.raises(InputError, match="not associative"):
                FiniteGroupTable.from_mult(bad)
            swaps += 1
    assert swaps == 260


def test_table_validation_is_quadratic_in_the_order():
    # every triple would be 10^9 products; the generators' columns are 10^6
    start = time.perf_counter()
    table = FiniteGroupTable.cyclic(1000)
    assert table.generating_set == (1,) and table.inverse[1] == 999
    assert time.perf_counter() - start < 5


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
    assert pres.relators[1] == ((1, 1), (0, -1), (0, -1))
    # uppercase letters are inverse letters
    same = FpGroupPresentation.from_strings(("a", "b"), ("aB",), Z4, (1, 1))
    assert same.relators == (((0, 1), (1, -1)),)
    assert pres.evaluate(((0, 1), (1, 1))) == 3
    assert pres.evaluate(((0, -1),)) == 3
    assert pres.evaluate(()) == 0


def test_gmodule_validation():
    with pytest.raises(InputError):
        GModuleFree(Z2, 1, (IntMatrix.identity(1), IntMatrix.from_rows([[2]])))
    with pytest.raises(InputError):
        GModuleFree(Z2, 1, (IntMatrix.from_rows([[2]]), IntMatrix.identity(1)))
    m = GModuleFree.trivial(Z3, 2)
    assert m.rank == 2 and all(a.entries == ((1, 0), (0, 1)) for a in m.action)
    with pytest.raises(InputError, match="rank must be nonnegative"):
        GModuleFree.trivial(Z3, -1)


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


@pytest.mark.parametrize("preset", [*PRESET_NAMES, "S3"])
def test_built_modules_pass_the_full_check(preset):
    # magnus_sequence, tensor_gmodule, GModuleFree.trivial, group_ring and
    # augmentation_ideal skip GModuleFree's check; run it, on the stored
    # sparse actions and on dense copies. Either way the module stores
    # SparseMatrix columns, rows ascending and with no stored zero
    presentations = [_s3_presentation()] if preset == "S3" else load_preset(preset).presentations
    for pres in presentations:
        table = pres.target
        relation = magnus_sequence(pres).relation_module
        built = [relation, group_ring(table)]
        built += [GModuleFree.trivial(table, rank) for rank in (0, 3)]
        for coeff in (GModuleFree.trivial(table, 1), augmentation_ideal(table)):
            built += [_fold(relation, n, coeff) for n in range(3)]
        for m in built:
            assert GModuleFree(m.group, m.rank, m.action) == m
            given = GModuleFree(m.group, m.rank, tuple(map(_dense, m.action)))
            assert given == m
            for a in m.action + given.action:
                assert isinstance(a, SparseMatrix)
                assert all(all(col.values()) and list(col) == sorted(col) for col in a.columns)


def test_group_ring_and_augmentation():
    zg = group_ring(Z2)
    assert zg.action[1].entries == ((0, 1), (1, 0))
    delta = augmentation_ideal(Z2)
    assert delta.rank == 1
    assert delta.action[1].entries == ((-1,),)
    d3 = augmentation_ideal(Z3)
    # t(t-1) = t^2 - t = (t^2 - 1) - (t - 1)
    assert d3.action[1].columns[0] == {0: -1, 1: 1}


def test_tensor_gmodule():
    zg = group_ring(Z2)
    sq = tensor_gmodule(zg, zg)
    assert sq.rank == 4
    assert coinvariants(sq) == FgAbGroup(2)  # ZG (x) ZG = ZG^2 as a G-module
    assert coinvariants(zg, zg) == FgAbGroup(2)
    with pytest.raises(InputError):
        tensor_gmodule(zg, group_ring(Z3))
    # the actions are the Kronecker products of the factors' dense actions
    for pres in (_s3_presentation(), load_preset("Z2xZ2").presentations[0]):
        table = pres.target
        modules = (group_ring(table), augmentation_ideal(table), magnus_sequence(pres).relation_module)
        for a, b in itertools.product(modules, repeat=2):
            want = [_kron(_dense(x), _dense(y)) for x, y in zip(a.action, b.action)]
            assert [_dense(x) for x in tensor_gmodule(a, b).action] == want
    with pytest.raises(InputError, match="share their group"):
        coinvariants(zg, group_ring(Z3))
    with pytest.raises(InputError, match="share their group"):
        h1_free(load_preset("Z2").presentations[0], zg, group_ring(Z3))


def test_tensor_gmodule_refuses_oversized_products():
    # R^(x)4 over S3 has rank 7^4 = 2401, so its 6 action matrices would
    # hold 34.6 million entries; the largest product the other tests form
    # has 1.6 million
    relation = magnus_sequence(_s3_presentation()).relation_module
    square = tensor_gmodule(relation, relation)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError, match="ranks 49 and 49 has 6 action matrices of 2401x2401"):
            functools.reduce(tensor_gmodule, (relation, relation, square))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_fox_derivative_frozen():
    pres = FpGroupPresentation.from_strings(("a",), ("aa",), Z2, (1,))
    (word,) = pres.relators
    # d(aa)/da = 1 + a
    assert fox_derivative(word, 0, pres) == [1, 1]
    # d(a^-1)/da = -a^-1 = -a over Z/2
    assert fox_derivative(((0, -1),), 0, pres) == [0, -1]
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
            shifted = _dense(zg.action[pres.evaluate(u)]) @ IntMatrix.column(dv)
            assert duv == [a + b for a, b in zip(du, shifted.transpose().entries[0])]


def test_magnus_frozen_z2():
    pres = load_preset("Z2").presentations[0]
    ms = magnus_sequence(pres)
    assert ms.sigma.entries == ((1, -1),)
    assert ms.inclusion.entries == ((1,), (1,))
    assert ms.relation_module.rank == 1
    assert ms.relation_module.action[1].columns == ({0: 1},)


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
                assert big @ ms.inclusion == ms.inclusion @ _dense(ms.relation_module.action[g])


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


def _s3_presentation(perms=tuple(itertools.permutations(range(3)))) -> FpGroupPresentation:
    """S3 as the permutations of three points, labelled in the order perms,
    <a, b | aa, bbb, abab> with a a transposition and b a 3-cycle."""
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
    # the greedy generating set of S3 above is two transpositions, of this
    # labelling a 3-cycle and a transposition, so pi(s)^-1 != pi(s)
    "S3-rotations-first": lambda: _s3_presentation(
        ((0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0))
    ),
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


@pytest.mark.parametrize("group", ["Z4", "Z2xZ2"])
def test_routes_leave_the_stored_columns_unchanged(group):
    # the stored columns are shared (a trivial module gives every element
    # one matrix), so a route that changed them would corrupt later answers
    pres = _PRESENTATIONS[group]()
    table = pres.target
    relation = magnus_sequence(pres).relation_module
    modules = [GModuleFree.trivial(table, 1), group_ring(table), augmentation_ideal(table), relation]
    before = copy.deepcopy([m.action for m in modules])
    for m in modules:
        coinvariants(m)
        coinvariants(relation, m)
        h1_free(pres, m)
        h1_free(pres, relation, m)
        for i in range(3):
            if table.is_cyclic():
                homology_cyclic(m, i)
            group_homology(m, i)
            homology_bar(m, i)
            homology_four_term(m, i)
        four_term_report(pres, m, 1)
        tensor_gmodule(m, relation)
        tensor_gmodule(relation, m)
    assert [m.action for m in modules] == before


def _hstack(rows: int, blocks) -> IntMatrix:
    """The blocks side by side; rows x 0 when there are none."""
    cols = sum(b.cols for b in blocks)
    return IntMatrix(rows, cols, tuple(sum((b.entries[i] for b in blocks), ()) for i in range(rows)))


def _smith_cokernel(m: IntMatrix) -> FgAbGroup:
    diag = smith_diagonal(m)
    return FgAbGroup(m.rows - sum(1 for x in diag if x), tuple(x for x in diag if x > 1))


@pytest.mark.parametrize("group", sorted(_PRESENTATIONS))
@pytest.mark.parametrize("module", sorted(_MODULES))
def test_coinvariants_and_h1_match_all_elements_oracle(group, module):
    pres = _PRESENTATIONS[group]()
    m = _MODULES[module](pres)
    # coinvariants: the old route stacked g - 1 for every g != 1; the zero
    # block of g = 1 keeps the stack nonempty for the trivial group
    every = [_minus_identity(m.action[g]) for g in range(m.group.order)]
    assert len(m.group.generating_set) < len(every)
    assert coinvariants(m) == _smith_cokernel(_hstack(m.rank, every))
    # h1_free: the kernel rank from one dense Smith diagonal; with no
    # generators the map Z^0 -> M has kernel 0
    blocks = [_minus_identity(m.action[g]) for g in pres.assignment]
    stacked = _hstack(m.rank, blocks)
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


def test_periodic_route_computes_each_distinct_group_once(monkeypatch):
    # H_i for i >= 1 depends only on the parity of i, so on a cyclic group
    # auto folds 0..99 to H_0, H_1 and H_2 and reads them off one product
    # window inside degrees 0..3
    windows = []
    product = grouphom._product_homologies

    def spy(coeff, factors, lo, hi):
        windows.append((lo, hi))
        return product(coeff, factors, lo, hi)

    monkeypatch.setattr(grouphom, "_product_homologies", spy)
    for coeff in (GModuleFree.trivial(Z4, 1), group_ring(Z4), augmentation_ideal(Z3)):
        windows.clear()
        got = grouphom._group_homologies(coeff, range(100), 10**6)
        assert windows == [(0, 2)]
        assert got == [homology_cyclic(coeff, i) for i in range(100)]
        # one high degree of each parity folds to the window 1..2
        want = [got[2], got[1]]
        windows.clear()
        assert grouphom._group_homologies(coeff, (10**8, 10**8 + 1), 1) == want
        assert windows == [(1, 2)]


def test_four_term_report_reads_a_and_d_off_one_window_on_a_cyclic_group(monkeypatch):
    # A = H_2n and D = H_(2n-1) fold to H_2 and H_1, one window 1..2
    windows = []
    product = grouphom._product_homologies
    monkeypatch.setattr(
        grouphom, "_product_homologies", lambda *args: windows.append(args[2:]) or product(*args)
    )
    for name in ("Z2", "Z3", "Z4"):
        preset = load_preset(name)
        for n in (1, 2):
            windows.clear()
            report = four_term_report(preset.presentations[0], GModuleFree.trivial(preset.table, 1), n)
            order = preset.table.order
            assert (report.a, report.d) == (FgAbGroup(0), FgAbGroup(0, (order,)))
            assert report.passed and windows == [(1, 2)]


def test_homology_regular_coefficients_acyclic():
    for table in (Z2, Z3):
        zg = group_ring(table)
        assert homology_cyclic(zg, 0) == FgAbGroup(1)
        for i in (1, 2, 3):
            assert homology_cyclic(zg, i) == FgAbGroup(0)
            assert homology_bar(zg, i) == FgAbGroup(0)


def test_homology_klein_four():
    coeff = GModuleFree.trivial(V4, 1)
    assert homology_bar(coeff, 1) == FgAbGroup(0, (2, 2))
    assert homology_bar(coeff, 2) == FgAbGroup(0, (2,))
    with pytest.raises(InputError, match="needs a cyclic group"):
        homology_cyclic(coeff, 1)
    # auto takes the product of the two Z/2 factors' periodic resolutions
    assert group_homology(coeff, 1) == FgAbGroup(0, (2, 2))
    # Kunneth: H_5 = (Z/2)^4; the normalized d_6 is 243 x 729 entries, inside
    # the default budget (the full bar complex would need 1024 x 4096), the
    # four-term route's B at n = 3 is 125 x 250, and the product window
    # 4..6 is 5 x 6 and 6 x 7
    assert homology_bar(coeff, 5) == FgAbGroup(0, (2, 2, 2, 2))
    assert homology_four_term(coeff, 5) == FgAbGroup(0, (2, 2, 2, 2))
    assert group_homology(coeff, 5) == FgAbGroup(0, (2, 2, 2, 2))


def test_homology_trivial_group():
    one = FiniteGroupTable.cyclic(1)
    coeff = GModuleFree.trivial(one, 1)
    assert homology_cyclic(coeff, 0) == FgAbGroup(1)
    for i in (1, 2):
        assert homology_cyclic(coeff, i) == FgAbGroup(0)
        assert homology_bar(coeff, i) == FgAbGroup(0)


def test_homology_bar_budget():
    coeff = GModuleFree.trivial(Z4, 1)
    with pytest.raises(ResourceBudgetError):
        homology_bar(coeff, 3, budget=100)
    # H_3 needs d_4 on words of nonidentity letters: 3^3 x 3^4 = 2187 entries
    assert homology_bar(coeff, 3, budget=2187) == FgAbGroup(0, (4,))
    with pytest.raises(ResourceBudgetError, match="is 27x81 = 2187 entries, budget is 2186"):
        homology_bar(coeff, 3, budget=2186)
    # budget is keyword-only, so a method string cannot be read as a budget
    with pytest.raises(TypeError):
        group_homology(coeff, 1, "periodic")
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


def _bar_fits(table: FiniteGroupTable, rank: int, i: int) -> bool:
    """Whether homology_bar computes H_i at the default budget."""
    return rank * rank * (table.order - 1) ** (2 * i + 1) <= DEFAULT_BAR_BUDGET


def _four_term_route_cases():
    """Every preset, S3 in two labellings and the trivial group, M in
    {Z, I, ZG}, at every degree up to 7 that the bar route fits at the
    default budget."""
    for group in ("Z2", "Z3", "Z4", "Z2xZ2", "S3", "S3-rotations-first", "trivial-no-generators"):
        table = _PRESENTATIONS[group]().target
        for module in sorted(_BAR_MODULES):
            rank = _BAR_MODULES[module](table).rank
            for i in range(8):
                if _bar_fits(table, rank, i):
                    yield group, module, i


@pytest.mark.parametrize("group, module, degree", list(_four_term_route_cases()))
def test_four_term_route_matches_bar_and_periodic(group, module, degree):
    table = _PRESENTATIONS[group]().target
    coeff = _BAR_MODULES[module](table)
    got = homology_four_term(coeff, degree)
    assert got == homology_bar(coeff, degree)
    if table.is_cyclic():
        assert got == homology_cyclic(coeff, degree)


def test_four_term_route_s3_frozen():
    # H_1..H_6(S3; Z) have period 4 (Brown, Cohomology of Groups, VI.9); the
    # bar route refuses H_4 and above at the default budget
    coeff = GModuleFree.trivial(_s3_presentation().target, 1)
    zero, two, six = FgAbGroup(0), FgAbGroup(0, (2,)), FgAbGroup(0, (6,))
    assert [group_homology(coeff, i) for i in range(1, 7)] == [two, zero, six, zero, two, zero]
    with pytest.raises(ResourceBudgetError):
        homology_bar(coeff, 4)


def test_four_term_route_budget():
    # H_3 and H_4 of V4 take n = 2: rank_B = 5^2 over the two generators
    # of the greedy generating set. auto takes the product route on V4, so
    # the four-term route is called directly
    coeff = GModuleFree.trivial(V4, 1)
    assert homology_four_term(coeff, 3, budget=1250) == FgAbGroup(0, (2, 2, 2))
    message = r"R\^\(x\)2 \(x\) M is 25x50 = 1250 entries, budget is 1249"
    with pytest.raises(ResourceBudgetError, match=message):
        homology_four_term(coeff, 4, budget=1249)
    # H_1 with ZG coefficients: B = R (x) ZG needs 20 x 40 entries, where
    # the bar route's d_2 needs 12 x 36
    zg = group_ring(V4)
    assert homology_four_term(zg, 1, budget=800) == homology_bar(zg, 1, budget=432) == FgAbGroup(0)
    with pytest.raises(ResourceBudgetError, match="is 20x40 = 800 entries, budget is 799"):
        homology_four_term(zg, 1, budget=799)
    # H_0 is the coinvariants of M, n = 0
    with pytest.raises(ResourceBudgetError, match=r"R\^\(x\)0 \(x\) M is 4x8 = 32 entries"):
        homology_four_term(zg, 0, budget=31)
    start = time.perf_counter()
    with pytest.raises(ResourceBudgetError, match=r"R\^\(x\)2500 \(x\) M has over 1000000 rows"):
        homology_four_term(coeff, 5000)
    # a rank-0 module has rank_B = 0 at every n, so n itself is capped
    for module in (coeff, GModuleFree.trivial(V4, 0)):
        with pytest.raises(ResourceBudgetError, match="degree n is over the budget of 1000000"):
            homology_four_term(module, 10**8)
    assert time.perf_counter() - start < 1


def _product_table(orders, elements=None) -> FiniteGroupTable:
    """Z/o_1 x ... x Z/o_k with index i standing for elements[i], a tuple of
    residues; by default the tuples in itertools.product order."""
    elements = elements or list(itertools.product(*map(range, orders)))
    index = {e: i for i, e in enumerate(elements)}
    return FiniteGroupTable.from_mult(
        [[index[tuple((x + y) % o for x, y, o in zip(a, b, orders))] for b in elements] for a in elements]
    )


_SPLIT_GROUPS = {
    "V4": lambda: V4,
    # greedy generating set (1, 1), (0, 1) instead of V4's (0, 1), (1, 0)
    "V4-relabelled": lambda: _product_table((2, 2), [(0, 0), (1, 1), (0, 1), (1, 0)]),
    "Z2xZ4": lambda: _product_table((2, 4)),
    "Z3xZ3": lambda: _product_table((3, 3)),
    "Z2^3": lambda: _product_table((2, 2, 2)),
}

# Z/2 x Z/4 labelled so that the greedy generating set is (0, 1) and
# (1, 1), both of order 4: 4 * 4 != 8, so it does not split over them
_Z2XZ4_UNSPLIT = (
    (2, 4), [(0, 0), (0, 1), (1, 1), (0, 2), (0, 3), (1, 0), (1, 2), (1, 3)]
)


def test_split_factors():
    assert grouphom._split_factors(V4) == (1, 2)
    assert grouphom._split_factors(_SPLIT_GROUPS["V4-relabelled"]()) == (1, 2)
    assert grouphom._split_factors(_SPLIT_GROUPS["Z2xZ4"]()) == (1, 4)
    assert grouphom._split_factors(_SPLIT_GROUPS["Z2^3"]()) == (1, 2, 4)
    assert grouphom._split_factors(Z4) == (1,)
    assert grouphom._split_factors(FiniteGroupTable.cyclic(1)) == (0,)
    assert grouphom._split_factors(_PRESENTATIONS["Z6-relabelled"]().target) == (3,)
    assert grouphom._split_factors(_product_table(*_Z2XZ4_UNSPLIT)) is None
    assert grouphom._split_factors(_s3_presentation().target) is None


def _product_route_cases():
    for group, make in _SPLIT_GROUPS.items():
        table = make()
        for module in sorted(_BAR_MODULES):
            rank = _BAR_MODULES[module](table).rank
            for i in range(8):
                if _bar_fits(table, rank, i):
                    yield group, module, i


@pytest.mark.parametrize("group, module, degree", list(_product_route_cases()))
def test_product_route_matches_bar(group, module, degree, monkeypatch):
    table = _SPLIT_GROUPS[group]()
    coeff = _BAR_MODULES[module](table)
    want = homology_bar(coeff, degree)
    # auto reaches neither the four-term route nor the bar route
    for name in ("_homologies_four_term", "homology_bar"):
        monkeypatch.setattr(grouphom, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    assert group_homology(coeff, degree) == want
    # the window of one degree agrees with a window from 0
    assert grouphom._group_homologies(coeff, range(degree + 1), DEFAULT_BAR_BUDGET)[-1] == want
    if group.startswith("V4"):
        monkeypatch.undo()
        assert homology_four_term(coeff, degree) == want


def test_product_route_klein_four_kunneth():
    # H_2j(V4; Z) = (Z/2)^j and H_(2j-1)(V4; Z) = (Z/2)^(j+1) (Brown,
    # Cohomology of Groups, V.6), read off one window of degrees 0..41
    coeff = GModuleFree.trivial(V4, 1)
    want = [FgAbGroup(1)]
    for j in range(1, 21):
        want += [FgAbGroup(0, (2,) * (j + 1)), FgAbGroup(0, (2,) * j)]
    assert grouphom._group_homologies(coeff, range(41), DEFAULT_BAR_BUDGET) == want
    assert [group_homology(coeff, i) for i in (39, 40)] == want[39:]
    # one degree far out needs only the window 99..101
    assert group_homology(coeff, 100) == FgAbGroup(0, (2,) * 50)


def test_unsplit_labelling_takes_the_four_term_route(monkeypatch):
    table = _product_table(*_Z2XZ4_UNSPLIT)
    assert [table.element_order(g) for g in table.generating_set] == [4, 4]
    calls = []
    monkeypatch.setattr(
        grouphom, "_product_homologies", lambda *args: pytest.fail("product route on an unsplit table")
    )
    four_term = grouphom._homologies_four_term
    monkeypatch.setattr(
        grouphom, "_homologies_four_term", lambda *args: calls.append(args[1]) or four_term(*args)
    )
    degrees = []
    for module in sorted(_BAR_MODULES):
        coeff = _BAR_MODULES[module](table)
        for i in range(4):
            if _bar_fits(table, coeff.rank, i):
                assert group_homology(coeff, i) == homology_bar(coeff, i)
                degrees.append((i,))
    assert calls == degrees and len(degrees) == 9


def test_four_term_report_takes_a_and_d_from_a_route_without_r(monkeypatch):
    # on a split group A and D come from the product resolution, with no bar
    # differential; on S3, which does not split, from the bar route
    built = []
    bar = grouphom._bar_differential
    monkeypatch.setattr(grouphom, "_bar_differential", lambda *args: built.append(args[1]) or bar(*args))
    monkeypatch.setattr(grouphom, "_homologies_four_term", lambda *args: pytest.fail("phi route called"))
    klein = load_preset("Z2xZ2")
    report = four_term_report(klein.presentations[0], augmentation_ideal(klein.table), 2)
    assert (report.a, report.d) == (FgAbGroup(0, (2,) * 4), FgAbGroup(0, (2, 2)))
    assert report.passed and not built
    s3 = _s3_presentation()
    report = four_term_report(s3, GModuleFree.trivial(s3.target, 1), 1)
    assert (report.a, report.d) == (FgAbGroup(0), FgAbGroup(0, (2,)))
    assert report.passed and sorted(built) == [1, 2, 2, 3]


def test_product_route_budget(monkeypatch):
    # H_0..H_4 of V4 write d_1..d_5, of p x (p + 1) entries each: 70 in all
    coeff = GModuleFree.trivial(V4, 1)
    homologies = grouphom._group_homologies
    assert homologies(coeff, range(5), 70)[4] == FgAbGroup(0, (2, 2))
    with pytest.raises(ResourceBudgetError, match=r"degrees 1\.\.5 have 70 entries, budget is 69$"):
        homologies(coeff, range(5), 69)
    # H_3 with ZG coefficients writes d_3 and d_4 of the window 2..4, of
    # rank 4 per block: 12 x 16 + 16 x 20 = 512 entries
    zg = group_ring(V4)
    assert group_homology(zg, 3, budget=512) == FgAbGroup(0)
    with pytest.raises(ResourceBudgetError, match=r"degrees 3\.\.4 have 512 entries, budget is 511$"):
        group_homology(zg, 3, budget=511)
    # a long or a high window is refused before any term is written
    monkeypatch.setattr(grouphom, "_product_homologies", lambda *args: pytest.fail("window written"))
    start = time.process_time()
    with pytest.raises(ResourceBudgetError, match=r"degrees 1\.\.1001 have over 1000000 entries"):
        homologies(coeff, range(1001), DEFAULT_BAR_BUDGET)
    # a rank-0 module writes no entries, but its blocks are counted as rank 1
    for module in (coeff, GModuleFree.trivial(V4, 0)):
        for degree in (5000, 10**8, 10**100):
            with pytest.raises(ResourceBudgetError, match="have over 1000000 entries"):
                group_homology(module, degree)
    assert time.process_time() - start < 0.1
    # the one-factor case, the periodic route, reads a window of at most
    # four terms and is not budgeted: H_(10^8)(Z/4; Z) = 0 at a budget of 1
    monkeypatch.undo()
    assert homology_cyclic(GModuleFree.trivial(Z4, 1), 10**8) == FgAbGroup(0)
    assert group_homology(GModuleFree.trivial(Z4, 1), 10**8 + 1, budget=1) == FgAbGroup(0, (4,))


def test_bar_route_budgets_every_degree_before_computing_any(monkeypatch):
    monkeypatch.setattr(grouphom, "_bar_differential", lambda *args: pytest.fail("bar differential built"))
    with pytest.raises(ResourceBudgetError, match="bar differential at degree 7 is 729x2187 = 1594323 entries"):
        grouphom._bar_homologies(GModuleFree.trivial(V4, 1), range(1001), DEFAULT_BAR_BUDGET)


# the dense oracle of a tensor product of rank r has r^2 |G| entries; this
# leaves out only R (x) R (x) R^(x)2 over the two S3 labellings, of rank
# 7^4 (35 million entries)
_KRONECKER_CAP = 2_000_000


@pytest.mark.parametrize("group", sorted(_PRESENTATIONS))
@pytest.mark.parametrize("module", sorted(_MODULES))
def test_tensor_minus_one_matches_the_kronecker_stack(group, module):
    # _minus_one writes each rho(g) - 1 on a tensor product from the
    # factors' actions; the oracle is the dense stack of the Kronecker
    # products of the factors' dense actions, over the generating set and
    # over every element. tensor_gmodule shares _minus_one's column writer,
    # so it is no oracle here
    pres = _PRESENTATIONS[group]()
    m = _MODULES[module](pres)
    table = pres.target
    relation = magnus_sequence(pres).relation_module
    for factors in ((m,), (relation, m), (m, relation), (relation, relation, m)):
        rank = math.prod(f.rank for f in factors)
        if rank**2 * table.order > _KRONECKER_CAP:
            continue
        kron = [functools.reduce(_kron, [_dense(f.action[g]) for f in factors]) for g in range(table.order)]
        for elements in (table.generating_set, range(table.order)):
            want = _hstack(rank, [_minus_identity(kron[g]) for g in elements])
            got = _minus_one(factors, elements)
            assert (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries)


def test_sequence_routes_form_no_tensor_module(monkeypatch):
    # homology_four_term and four_term_report read the tensor factors'
    # actions; neither may fall back to building R^(x)(n-1) (x) M
    def refuse(a, b):
        raise AssertionError("tensor_gmodule was called")

    monkeypatch.setattr(grouphom, "tensor_gmodule", refuse)
    s3 = GModuleFree.trivial(_s3_presentation().target, 1)
    assert homology_four_term(s3, 3) == FgAbGroup(0, (6,))
    assert homology_four_term(s3, 4) == FgAbGroup(0)
    klein = load_preset("Z2xZ2")
    coeff = augmentation_ideal(klein.table)
    report = four_term_report(klein.presentations[0], coeff, 2)
    assert report.passed
    assert homology_four_term(coeff, 3) == report.d
    assert homology_four_term(coeff, 4) == report.a


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


def test_four_term_report_depends_only_on_the_generators_images():
    # the Magnus sequence, kept on the presentation object, depends only on
    # the generators' images, not the relators
    first = load_preset("Z3").presentations[0]
    same_images = FpGroupPresentation(first.generators, (), Z3, first.assignment)
    assert first.magnus is first.magnus
    assert same_images.magnus.sigma == first.magnus.sigma
    coeff = GModuleFree.trivial(Z3, 1)
    report = four_term_report(same_images, coeff, 1)
    assert report == four_term_report(first, coeff, 1)
    assert report.b == FgAbGroup(1) and report.passed


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
    # four_term_report writes B from the factors R, ..., R, M, index order
    # R (x) (... (x) (R (x) M)); by the associativity of the Kronecker
    # product the actions, and so B, are those of the plain tensor power
    # (R (x) ... (x) R) (x) M that tensor_gmodule builds
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

import json
import random
import time
import tracemalloc

import pytest

import exacthom.cli as cli
from exacthom import grouphom
from exacthom.abelian import FgAbGroup
from exacthom.cli import (
    JobSpec,
    decode_matrix,
    encode_group,
    encode_matrix,
    main,
    parse_group,
    run,
)
from exacthom.errors import InputError
from exacthom.linalg import IntMatrix


def test_parse_group():
    assert parse_group("0") == FgAbGroup(0)
    assert parse_group("Z") == FgAbGroup(1)
    assert parse_group("Z^3") == FgAbGroup(3)
    assert parse_group("Z/4") == FgAbGroup(0, (4,))
    assert parse_group("Z + Z/2") == FgAbGroup(1, (2,))
    assert parse_group("Z/2+Z/3") == FgAbGroup(0, (6,))
    assert parse_group(" Z^2 + Z/2 + Z/4 ") == FgAbGroup(2, (2, 4))
    for bad in ("", "Q", "Z/0", "Z^0", "Z/", "Z/2 - Z/3", "Z/x"):
        with pytest.raises(InputError):
            parse_group(bad)


def test_render_group_round_trip():
    for group in (
        FgAbGroup(0),
        FgAbGroup(1),
        FgAbGroup(2),
        FgAbGroup(0, (2, 4)),
        FgAbGroup(3, (2, 2, 6)),
    ):
        assert parse_group(str(group)) == group


def test_matrix_codec():
    m = IntMatrix.from_rows([[1, -2], [3, 10**25]])
    obj = encode_matrix(m)
    assert obj["entries"][1][1] == str(10**25)
    assert decode_matrix(obj) == m
    assert decode_matrix(json.loads(json.dumps(obj))) == m
    # bare ints are tolerated
    assert decode_matrix({"rows": 1, "cols": 1, "entries": [[7]]}).entries[0][0] == 7
    for bad in (
        [],
        {"rows": 1, "cols": 1},
        {"rows": 1, "cols": 1, "entries": [["x"]]},
        {"rows": 1, "cols": 1, "entries": [[True]]},
        {"rows": 2, "cols": 1, "entries": [["1"]]},
        {"rows": 1, "cols": -1, "entries": [[]]},
    ):
        with pytest.raises(InputError):
            decode_matrix(bad)


def test_encode_group():
    assert encode_group(FgAbGroup(1, (2, 4))) == {
        "free_rank": 1,
        "invariant_factors": [2, 4],
    }


def test_run_snf(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps({"rows": 2, "cols": 2, "entries": [["2", "4"], ["6", "8"]]})
    )
    code, text = run(JobSpec("snf", {"input": str(path)}, output_format="json"))
    assert code == 0
    report = json.loads(text)
    assert report["diagonal"] == ["2", "4"]
    assert report["cokernel"] == "Z/2 + Z/4"
    u = decode_matrix(report["u"])
    v = decode_matrix(report["v"])
    d = decode_matrix(report["d"])
    assert u @ decode_matrix(json.loads(path.read_text())) @ v == d


def test_run_snf_past_int_str_limit(tmp_path):
    # V of (10^5000, 10^5000 + 1) holds Bezout coefficients of 5001 digits,
    # past Python's default int <-> str conversion limit; the entries go in
    # as decimal strings, since json.dumps of the ints hits the same limit
    big = "1" + "0" * 5000
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": 1, "cols": 2, "entries": [[big, big[:-1] + "1"]]}))
    code, text = run(JobSpec("snf", {"input": str(path)}, output_format="json"))
    assert code == 0
    report = json.loads(text)
    longest = max((x for key in "uv" for row in report[key]["entries"] for x in row), key=len)
    assert len(longest.lstrip("-")) > 4300
    u, d, v = (decode_matrix(report[key]) for key in "udv")
    assert u @ IntMatrix.from_rows([[10**5000, 10**5000 + 1]]) @ v == d
    code, text = run(JobSpec("snf", {"input": str(path)}, output_format="text"))
    assert code == 0
    assert longest in text


def test_run_snf_group_past_int_str_limit(tmp_path):
    # the cokernel Z/10^5000 is printed and parsed past the 4300-digit limit
    order = "1" + "0" * 5000
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[order]]}))
    code, text = run(JobSpec("snf", {"input": str(path)}, output_format="json"))
    assert code == 0
    assert json.loads(text)["cokernel"] == "Z/" + order
    code, text = run(JobSpec("snf", {"input": str(path)}, output_format="text"))
    assert code == 0
    assert "cokernel Z/" + order in text
    for s in ("Z/" + order, "Z^2 + Z/2 + Z/" + order):
        assert str(parse_group(s)) == s


def test_run_snf_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, text = run(JobSpec("snf", {"input": str(path)}, output_format="json"))
    assert code == 2
    assert json.loads(text)["error"] == "input"
    code, _ = run(JobSpec("snf", {"input": str(tmp_path / "missing.json")}))
    assert code == 2


@pytest.mark.parametrize(
    "matrix",
    [{"rows": 0, "cols": 2**63, "entries": []}, {"rows": 2000, "cols": 0, "entries": [[]] * 2000}],
    ids=["0x2^63", "2000x0"],
)
def test_run_snf_budget(tmp_path, matrix):
    # a 0 x c input has a c x c V and an r x 0 input an r x r U, so both
    # are refused before snf allocates either
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix))
    tracemalloc.start()
    try:
        code, text = run(JobSpec("snf", {"input": str(path)}, output_format="json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert json.loads(text)["error"] == "budget"
    assert peak < 2**20, peak


def test_run_snf_boolean_dimensions(tmp_path):
    # bool is an int subclass, but true is no dimension
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": True, "cols": True, "entries": [[2]]}))
    code, text = run(JobSpec("snf", {"input": str(path)}, output_format="json"))
    assert code == 2
    assert json.loads(text)["error"] == "input"


def _derive_params(**overrides):
    params = {
        "functor": "ext",
        "n": 2,
        "group": "Z/4",
        "padding": 0,
        "check_independence": False,
        "paddings": "0,1,2",
    }
    params.update(overrides)
    return params


def test_run_derive():
    code, text = run(JobSpec("derive", _derive_params(), output_format="json"))
    assert code == 0
    report = json.loads(text)
    assert [v["group"] for v in report["values"]] == ["0", "Z/4", "0"]
    code, text = run(JobSpec("derive", _derive_params(functor="sym", group="Z")))
    assert code == 0
    assert "L_0 = Z" in text and "L_1 = 0" in text


def test_run_derive_json_past_int_str_limit():
    # L_0(tensor^1)(Z/10^5000) is an order past the 4300-digit limit of
    # json.dumps; it is written as a decimal string, ordinary orders as ints
    order = "1" + "0" * 5000
    params = _derive_params(functor="tensor", n=1, group="Z/" + order)
    code, text = run(JobSpec("derive", params, output_format="json"))
    assert code == 0
    value = json.loads(text)["values"][0]
    assert value["group"] == "Z/" + order
    assert value["json"] == {"free_rank": 0, "invariant_factors": [order]}
    assert encode_group(parse_group("Z + Z/2 + Z/" + order)) == {
        "free_rank": 1,
        "invariant_factors": [2, order],
    }


def test_run_derive_errors():
    code, _ = run(JobSpec("derive", _derive_params(functor="div")))
    assert code == 2
    code, _ = run(JobSpec("derive", _derive_params(group="beep")))
    assert code == 2
    code, _ = run(JobSpec("derive", _derive_params(n=0)))
    assert code == 2
    code, _ = run(JobSpec("derive", _derive_params(padding=-1)))
    assert code == 2
    code, _ = run(
        JobSpec("derive", _derive_params(check_independence=True, paddings="x"))
    )
    assert code == 2


def test_run_derive_budget(monkeypatch):
    # ext^2 of Z/4 + Z at padding 10^5: F = Z^100002 and H = Z^100001, so
    # d_1 is Ext^2(F) x (H (x) F), past the limit though each term fits
    params = _derive_params(group="Z/4 + Z", padding=10**5)
    code, text = run(JobSpec("derive", params, output_format="json"))
    assert code == 3
    report = json.loads(text)
    assert report["error"] == "budget"
    assert "d_1 is 5000150001x10000300002 = " in report["message"]
    # every padding of an independence check is sized before any is built
    monkeypatch.setattr(cli, "derived", lambda *a, **k: pytest.fail("built"))
    params = _derive_params(group="Z/4 + Z", check_independence=True, paddings=f"0,{10**5}")
    code, _ = run(JobSpec("derive", params))
    assert code == 3
    assert parse_group("Z^9223372036854775807 + Z/2") == FgAbGroup(2**63 - 1, (2,))


def test_run_out_of_memory_is_a_budget_error(monkeypatch):
    # a request the budget check lets through can still exhaust memory
    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "derived", exhaust)
    code, text = run(JobSpec("derive", _derive_params(), output_format="json"))
    assert code == 3
    assert json.loads(text) == {
        "command": "derive",
        "error": "budget",
        "message": "derive ran out of memory",
    }
    code, text = run(JobSpec("derive", _derive_params()))
    assert code == 3 and text == "error (budget): derive ran out of memory\n"


def test_run_derive_independence():
    params = _derive_params(check_independence=True, paddings="0,1,2")
    code, text = run(JobSpec("derive", params, output_format="json"))
    assert code == 0
    report = json.loads(text)
    assert report["independent"] is True
    assert len(report["paddings"]) == 3


def _grouphom_params(**overrides):
    params = {
        "preset": "Z3",
        "group_file": None,
        "coeff": "trivial",
        "degrees": "0..3",
        "method": "both",
        "budget": 10**6,
    }
    params.update(overrides)
    return params


def test_run_grouphom():
    code, text = run(JobSpec("grouphom", _grouphom_params(), output_format="json"))
    assert code == 0
    report = json.loads(text)
    degrees = {row["degree"]: row for row in report["homology"]}
    assert degrees[0]["auto"] == "Z" and degrees[0]["agree"]
    assert degrees[1]["bar"] == "Z/3"
    assert degrees[2]["auto"] == "0"
    assert set(degrees[2]) == {"degree", "auto", "bar", "agree"}
    _, text = run(JobSpec("grouphom", _grouphom_params()))
    assert "  H_1 auto=Z/3 bar=Z/3 [ok]\n" in text


def test_run_grouphom_budget():
    params = _grouphom_params(preset="Z4", method="bar", degrees="3..3", budget=100)
    code, text = run(JobSpec("grouphom", params, output_format="json"))
    assert code == 3
    assert json.loads(text)["error"] == "budget"


def _s3_file(tmp_path) -> str:
    """S3 as a group file, with the 3-cycle a = (1, 2, 0) first."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    mult = [[perms.index(tuple(x[y[k]] for k in range(3))) for y in perms] for x in perms]
    presentation = {"generators": ["a", "b"], "relators": ["aaa", "bb", "abab"], "assignment": [1, 3]}
    path = tmp_path / "S3.json"
    path.write_text(json.dumps({"table": {"order": 6, "mult": mult}, "presentations": [presentation]}))
    return str(path)


def test_run_grouphom_budget_huge_degree(tmp_path):
    # auto on S3 budgets B = R^(x)2500 (x) Z, rank 7^2500, capped; on Z2xZ2
    # the product window's d_5000 alone is 5000x5001
    start = time.perf_counter()
    for source, message in (
        ({"preset": None, "group_file": _s3_file(tmp_path)},
         "coinvariant matrix of R^(x)2500 (x) M has over 1000000 rows, budget is 1000000"),
        ({"preset": "Z2xZ2"},
         "product resolution differentials in degrees 5000..5001 have over 1000000 entries, budget is 1000000"),
    ):
        params = _grouphom_params(**source, method="auto", degrees="5000..5000")
        code, text = run(JobSpec("grouphom", params, output_format="json"))
        assert code == 3
        assert json.loads(text)["message"] == message
        params = _grouphom_params(**source, method="auto", degrees="100000000..100000000")
        code, _ = run(JobSpec("grouphom", params))
        assert code == 3
    assert time.perf_counter() - start < 1


def test_run_grouphom_budgets_every_degree_before_computing_any(tmp_path, monkeypatch):
    # on S3, n = 4 of H_7 is the first over budget: it is refused before
    # H_0..H_6 are computed, with the message a degree-by-degree check would
    # give. On Z2xZ2 the product window 0..1001 is refused before it is
    # written, and the bar route checks d_1..d_1001 before it builds any
    calls = []
    for name in ("magnus_sequence", "_product_homologies", "_bar_differential"):
        monkeypatch.setattr(grouphom, name, lambda *args, name=name: calls.append(name))
    for source, method, message in (
        ({"preset": None, "group_file": _s3_file(tmp_path)}, "auto",
         "coinvariant matrix of R^(x)4 (x) M is 2401x4802 = 11529602 entries, budget is 1000000"),
        ({"preset": "Z2xZ2"}, "auto",
         "product resolution differentials in degrees 1..1001 have over 1000000 entries, budget is 1000000"),
        ({"preset": "Z2xZ2"}, "bar",
         "bar differential at degree 7 is 729x2187 = 1594323 entries, budget is 1000000"),
    ):
        start = time.process_time()
        params = _grouphom_params(**source, method=method, degrees="0..1000")
        code, text = run(JobSpec("grouphom", params, output_format="json"))
        assert time.process_time() - start < 0.1
        assert code == 3 and not calls
        assert json.loads(text)["message"] == message


def test_run_grouphom_budget_caps_the_degree_count():
    params = _grouphom_params(preset="Z4", method="auto", degrees="0..10", budget=10)
    code, text = run(JobSpec("grouphom", params, output_format="json"))
    assert code == 3
    assert json.loads(text)["message"] == "degrees 0..10 are 11 degrees, budget is 10"
    params = _grouphom_params(preset="Z4", method="auto", degrees="0..9", budget=10)
    assert run(JobSpec("grouphom", params))[0] == 0
    start = time.perf_counter()
    params = _grouphom_params(preset="Z4", method="auto", degrees="0..100000000")
    assert run(JobSpec("grouphom", params))[0] == 3
    assert time.perf_counter() - start < 1


def test_run_grouphom_long_range_is_written_row_by_row_as_before():
    # each distinct group is rendered once and shared between its rows; the
    # report must be byte for byte the one that renders every row anew
    for preset, coeff, method, degrees in (
        ("Z4", "trivial", "auto", range(3000)),
        ("Z2xZ2", "augmentation", "auto", range(30)),
    ):
        params = _grouphom_params(preset=preset, coeff=coeff, method=method,
                                  degrees=f"{degrees[0]}..{degrees[-1]}")
        code, text = run(JobSpec("grouphom", params, output_format="json"))
        table = cli.load_preset(preset).table
        module = cli._coefficient_module(table, coeff)
        values = grouphom._group_homologies(module, degrees, method, 10**6)
        rows = [{"degree": i, "group": str(v), "json": encode_group(v)} for i, v in zip(degrees, values)]
        report = {"command": "grouphom", "group": preset, "order": table.order,
                  "coefficients": coeff, "method": method, "homology": rows}
        assert code == 0 and text == cli._json(report) + "\n"


def test_run_verify_four_term_budget():
    start = time.perf_counter()
    params = _verify_params(preset="Z2xZ2", n=3000)
    code, text = run(JobSpec("verify", params, output_format="json"))
    assert code == 3
    assert json.loads(text) == {
        "command": "verify",
        "error": "budget",
        "message": "coinvariant matrix of R^(x)3000 (x) M has over 1000000 rows, budget is 1000000",
    }
    assert time.perf_counter() - start < 1
    # Z2 at n = 7 needs a 2187x2187 coinvariant matrix
    code, text = run(JobSpec("verify", _verify_params(preset="Z2", n=7)))
    assert code == 3
    assert "2187x2187 = 4782969 entries" in text


def test_run_grouphom_errors():
    code, _ = run(JobSpec("grouphom", _grouphom_params(degrees="5..1")))
    assert code == 2
    code, _ = run(JobSpec("grouphom", _grouphom_params(preset="Z2xZ2", method="periodic")))
    assert code == 2
    code, _ = run(JobSpec("grouphom", _grouphom_params(coeff="wild")))
    assert code == 2


def test_run_grouphom_group_file(tmp_path):
    path = tmp_path / "klein.json"
    payload = {
        "table": {"mult": [[0, 1], [1, 0]]},
        "presentations": [
            {"generators": ["a"], "relators": ["aa"], "assignment": [1]}
        ],
    }
    path.write_text(json.dumps(payload))
    params = _grouphom_params(preset=None, group_file=str(path), degrees="0..1")
    code, text = run(JobSpec("grouphom", params, output_format="json"))
    assert code == 0
    report = json.loads(text)
    assert report["order"] == 2
    assert report["homology"][1]["bar"] == "Z/2"


def test_run_grouphom_builds_one_magnus_sequence_per_request(tmp_path, monkeypatch):
    # S3 with a 3-cycle first: under auto, H_0..H_6 come from one Magnus
    # sequence and one sequence complex for each n = 1, 2, 3
    path = _s3_file(tmp_path)
    calls = {"magnus_sequence": 0, "_sequence_complex": 0}
    for name in calls:
        def counted(*args, fn=getattr(grouphom, name), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(grouphom, name, counted)

    def groups(method, degrees):
        params = _grouphom_params(preset=None, group_file=path, degrees=degrees, method=method)
        code, text = run(JobSpec("grouphom", params, output_format="json"))
        assert code == 0, text
        return [row["group"] for row in json.loads(text)["homology"]]

    got = groups("auto", "0..6")
    assert calls == {"magnus_sequence": 1, "_sequence_complex": 3}
    # the bar route refuses H_4 and above at the default budget; H_1..H_6
    # have period 4 (Brown, Cohomology of Groups, VI.9)
    assert got[:4] == groups("bar", "0..3")
    assert got == ["Z", "Z/2", "0", "Z/6", "0", "Z/2", "0"]


def test_run_grouphom_both_compares_auto_with_bar_on_every_group(tmp_path):
    # both runs the route auto chooses (periodic, product or four-term)
    # next to the bar complex; on a cyclic group its auto values are the
    # periodic route's. The bar route's d_4 over S3 with regular
    # coefficients is 750 x 3750 entries, over the default budget
    sources = [({"preset": name}, "0..4", 10**6) for name in cli.PRESET_NAMES]
    sources.append(({"preset": None, "group_file": _s3_file(tmp_path)}, "0..3", 3 * 10**6))
    for source, degrees, budget in sources:
        for coeff in ("trivial", "regular", "augmentation"):
            params = _grouphom_params(**source, coeff=coeff, degrees=degrees, budget=budget)
            code, text = run(JobSpec("grouphom", params, output_format="json"))
            rows = json.loads(text)["homology"]
            assert code == 0 and all(row["agree"] for row in rows), (source, coeff, rows)
            if source.get("preset") in ("Z2", "Z3", "Z4"):
                module = cli._coefficient_module(cli.load_preset(source["preset"]).table, coeff)
                want = [str(grouphom.homology_cyclic(module, i)) for i in range(5)]
                assert [row["auto"] for row in rows] == want


def _z2_file(**change):
    """The Z2 group file with one field of its table or presentation replaced."""
    table = {"order": 2, "mult": [[0, 1], [1, 0]]}
    presentation = {"generators": ["a"], "relators": ["aa"], "assignment": [1]}
    for key, value in change.items():
        (table if key in table else presentation)[key] = value
    return {"table": table, "presentations": [presentation]}


@pytest.mark.parametrize(
    "body",
    [
        _z2_file(assignment=["x"]),
        _z2_file(generators=5),
        _z2_file(mult=[[0, 1], [1, "b"]]),
        _z2_file(order="two"),
        _z2_file(mult=7),
        _z2_file(generators=["ab"]),
        _z2_file(generators=["A"]),
    ],
    ids=["assignment", "generators", "table-entry", "order", "mult", "name-ab", "name-A"],
)
def test_run_grouphom_malformed_group_file(tmp_path, body):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(body))
    params = _grouphom_params(preset=None, group_file=str(path))
    code, text = run(JobSpec("grouphom", params, output_format="json"))
    assert code == 2
    assert json.loads(text)["error"] == "input"


def _verify_params(**overrides):
    params = {"suite": "four-term", "seed": 42, "budget": 10**6, "preset": None, "n": None}
    params.update(overrides)
    return params


def test_run_verify_four_term_preset():
    params = _verify_params(preset="Z2", n=1)
    code, text = run(JobSpec("verify", params))
    assert code == 0
    assert "(0, Z, Z, Z/2) PASS" in text
    assert "overall: PASS" in text


def test_run_verify_filters_rejected_elsewhere():
    code, _ = run(JobSpec("verify", _verify_params(suite="koszul-d2", preset="Z2")))
    assert code == 2


def test_run_verify_json_deterministic():
    params = _verify_params(suite="koszul-d2", seed=7)
    first = run(JobSpec("verify", params, output_format="json"))
    second = run(JobSpec("verify", params, output_format="json"))
    assert first == second
    assert first[0] == 0
    report = json.loads(first[1])
    assert report["suites"][0]["suite"] == "koszul-d2"
    assert report["passed"] is True


class _Label(str):
    """A str subclass, which json writes as the string it holds."""


def _report_like(rng, depth):
    """A random tree of the values a JSON report holds, and a few it never
    holds (floats, tuples, int keys), which the writer hands to json."""
    leaves = (
        lambda: rng.choice(["", "plain", 'a "quoted" word', "back\\slash", "tab\tand\nline\x00\x1f",
                            "Z/2 + Z/4", "caf\u00e9 \u2297 \U0001d53e", "\u2028", "-17"]),
        lambda: rng.randint(-10**6, 10**6),
        lambda: rng.choice((1, -1)) * rng.randint(10**300, 10**600),
        lambda: rng.choice((True, False, None)),
        lambda: rng.choice((0.5, -2.25, 1e300, float("inf"), float("nan"))),
        lambda: rng.choice(([], {}, (), (1, "x"))),
        lambda: [str(rng.randint(-99, 99)) for _ in range(rng.randint(1, 6))],
        lambda: [_Label("a\u00e9"), "b", _Label("")],
    )
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)()
    if rng.random() < 0.5:
        return [_report_like(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.1:
        return {rng.randint(-5, 5): _report_like(rng, depth - 1) for _ in range(rng.randint(1, 3))}
    keys = ["command", "u", "entries", "Rank", "a b", "\u00fc", "", "z\"q"]
    return {rng.choice(keys): _report_like(rng, depth - 1) for _ in range(rng.randint(0, 5))}


def test_json_writer_matches_json_dumps():
    rng = random.Random(2103)
    for _ in range(2000):
        obj = _report_like(rng, rng.randint(0, 5))
        assert cli._json(obj) == json.dumps(obj, indent=2, sort_keys=True), obj


def test_main_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "derive",
            "--functor",
            "ext",
            "--n",
            "2",
            "--group",
            "Z/4",
            "--format",
            "json",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["functor"] == "ext^2"


def test_main_stdout(capsys):
    code = main(["derive", "--functor", "ext", "--n", "2", "--group", "Z/4"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "L_1 = Z/4" in captured


def test_main_exit_codes(tmp_path):
    assert main(["derive", "--functor", "div", "--n", "2", "--group", "Z/2"]) == 2
    # the degree is checked by FunctorKind alone
    assert main(["derive", "--functor", "ext", "--n", "0", "--group", "Z/2"]) == 2
    # a free rank past sys.maxsize is refused before it is expanded
    assert main(["derive", "--functor", "ext", "--n", "2", "--group", "Z^100000000000000000000"]) == 2
    # one that fits is counted, not expanded, and refused by the derive limit
    assert main(["derive", "--functor", "ext", "--n", "2", "--group", "Z^9223372036854775807"]) == 3
    assert (
        main(
            [
                "grouphom",
                "--preset",
                "Z4",
                "--method",
                "bar",
                "--degrees",
                "3..3",
                "--budget",
                "100",
            ]
        )
        == 3
    )
    # auto is the only way to let grouphom choose a route: periodic is retired
    with pytest.raises(SystemExit) as refused:
        main(["grouphom", "--preset", "Z4", "--method", "periodic"])
    assert refused.value.code == 2
    # a budget below 1 is malformed input, even where nothing reads it
    assert main(["grouphom", "--preset", "Z2", "--budget", "-1"]) == 2
    assert main(["verify", "four-term", "--budget", "-1"]) == 2
    assert main(["verify", "functoriality", "--budget", "0"]) == 2
    assert main(["verify", "four-term", "--preset", "Z2", "--n", "1"]) == 0

"""A seeded fuzz test over every CLI entry point.

A fixed seed draws a fixed number of jobs: mutated matrix JSON for snf,
functor, n, group strings and paddings for derive, mutated group files,
degree ranges and budgets for grouphom, and four-term verification at
sequence degree at most 2. Each job runs through cli.main, and every one
must exit 0, 2 (malformed input, argparse refusals included) or 3 (over a
budget): exit 1 claims a violated invariant, which no input may provoke.
Every --format json report must parse, no exception may escape and no job
may run past JOB_SECONDS.
"""

import copy
import json
import random
import signal
import time

import pytest

from exacthom.cli import main
from exacthom.presets import PRESET_NAMES

SEED = "cli-fuzz"
JOBS = 300
JOB_SECONDS = 2.0

# values that have broken parsers before: bools, huge and negative ints,
# strings, floats, containers and null
ODD = [0, 1, -1, 2, 2**31, 2**63, -(2**63), 10**30, True, False, "1", "x", 1.5, None, [], {}]
# more than 4300 digits, past Python's default int <-> str limit
LONG = "1" + "0" * 4400

Z3_FILE = {
    "table": {"order": 3, "mult": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
    "presentations": [{"generators": ["a"], "relators": ["aaa"], "assignment": [1]}],
}
_S3 = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
S3_FILE = {
    "table": {"order": 6, "mult": [[_S3.index(tuple(x[y[k]] for k in range(3))) for y in _S3] for x in _S3]},
    "presentations": [{"generators": ["a", "b"], "relators": ["aaa", "bb", "abab"], "assignment": [1, 3]}],
}


class _Overtime(BaseException):
    """Raised by the alarm inside a job that runs past JOB_SECONDS."""


def _alarm(signum, frame):
    raise _Overtime


def _pick(rng, good, bad):
    """A value from good, or one time in ten from bad."""
    return rng.choice(bad if rng.random() < 0.1 else good)


def _mutate(rng, obj, rounds):
    """obj with `rounds` random edits: a value anywhere replaced by an odd
    one, a key dropped, or a list entry dropped or repeated."""
    obj = copy.deepcopy(obj)
    for _ in range(rounds):
        parent, key = None, None
        node = obj
        while isinstance(node, (dict, list)) and node and rng.random() < 0.75:
            parent = node
            key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
            node = node[key]
        if parent is None:
            return rng.choice(ODD)
        edit = rng.randrange(3)
        if edit == 0:
            parent[key] = rng.choice(ODD)
        elif edit == 1:
            del parent[key]
        elif isinstance(parent, list):
            parent.append(parent[key])
        else:
            parent[key] = rng.choice(ODD + [LONG, " 7 ", "+3", "-0", "1e3"])
    return obj


def _write(tmp_path, k, obj, rng):
    path = tmp_path / f"job{k}.json"
    text = json.dumps(obj)
    if rng.random() < 0.05:
        text = text[: rng.randrange(len(text) + 1)]  # cut short: not JSON
    path.write_text(text)
    return str(path)


def _snf(rng, tmp_path, k):
    rows, cols = rng.randint(0, 4), rng.randint(0, 4)
    entries = [[rng.choice([str, int])(rng.randint(-99, 99)) for _ in range(cols)] for _ in range(rows)]
    if rows and cols and rng.random() < 0.1:
        entries[0][0] = LONG
    matrix = _mutate(rng, {"rows": rows, "cols": cols, "entries": entries}, _pick(rng, [0], [1, 2]))
    return ["snf", "--input", _write(tmp_path, k, matrix, rng)]


def _group_string(rng):
    good = ["Z", "Z/2", "Z/3", "Z/4", "Z^2", "Z/6"]
    bad = ["0", "Z/1", "Z/0", "Z^0", "Z^-1", "Z/-2", "Q", "Z/x", "", "Z^9223372036854775807", "Z^" + LONG, "Z/" + LONG]
    text = rng.choice([" + ", "+", "  +"]).join(_pick(rng, good, bad) for _ in range(rng.randint(1, 2)))
    if text and rng.random() < 0.1:
        cut = rng.randrange(len(text))
        text = text[:cut] + text[cut + 1 :]
    return rng.choice(["", " "]) + text + rng.choice(["", " "])


def _derive(rng, tmp_path, k):
    # derive refuses div, which only verify computes
    argv = ["derive", "--functor", _pick(rng, ["sym", "ext", "tensor"], ["div", "lie"])]
    argv += ["--n", str(_pick(rng, [1, 2, 3], [-1, 0, 10**30, "x"]))]
    argv += ["--group", _group_string(rng)]
    if rng.random() < 0.5:
        argv += ["--padding", str(_pick(rng, [0, 1, 2], [-1, 10**20, "a"]))]
    if rng.random() < 0.3:
        argv += ["--check-independence"]
        argv += ["--paddings", _pick(rng, ["0,1", "0,1,2", "2"], ["", ",", "a", "-1", "1,,2", "0," + str(10**20)])]
    return argv


def _grouphom(rng, tmp_path, k):
    if rng.random() < 0.5:
        argv = ["grouphom", "--preset", _pick(rng, PRESET_NAMES, ["Q8"])]
    else:
        group = _mutate(rng, rng.choice([Z3_FILE, S3_FILE]), _pick(rng, [0], [1, 2]))
        argv = ["grouphom", "--group-file", _write(tmp_path, k, group, rng)]
    argv += ["--coeff", _pick(rng, ["trivial", "regular", "augmentation"], ["sign"])]
    # periodic, a retired method, now draws an argparse refusal
    argv += ["--method", _pick(rng, ["auto", "periodic", "bar", "both"], ["fast"])]
    # 0..1000001 is one degree over the default budget
    degrees = ["0..2", "0..4", "3", " 1 .. 2 ", "0..1000001", "0.." + str(10**20)]
    argv += ["--degrees", _pick(rng, degrees, ["2..1", "-1..2", "a..b", "0..", "..3"])]
    if rng.random() < 0.6:
        argv += ["--budget", str(_pick(rng, [10, 1000, 10**6], [0, -5, "x"]))]
    return argv


def _verify(rng, tmp_path, k):
    argv = ["verify", _pick(rng, ["four-term"], ["nonsense"])]
    argv += ["--n", str(_pick(rng, [1, 2], [0, -1, "x"]))]
    if rng.random() < 0.6:
        argv += ["--preset", _pick(rng, PRESET_NAMES, ["Q8"])]
    if rng.random() < 0.5:
        argv += ["--seed", str(_pick(rng, [0, 42, -1, 2**70], ["x"]))]
    if rng.random() < 0.5:
        argv += ["--budget", str(_pick(rng, [1, 50, 10**6], [0, -3]))]
    return argv


def _jobs(tmp_path):
    rng = random.Random(SEED)
    # the input a hand-run fuzzer once found running past its time bound
    zero_rows = {"rows": 0, "cols": 2**63, "entries": []}
    path = tmp_path / "zero_rows.json"
    path.write_text(json.dumps(zero_rows))
    yield ["snf", "--input", str(path), "--format", "json"]
    for k in range(JOBS - 1):
        argv = rng.choice([_snf, _derive, _grouphom, _verify])(rng, tmp_path, k)
        yield argv + _pick(rng, [["--format", "json"]] * 3 + [[], ["--format", "text"]], [["--format", "xml"]])


def _run(argv, capsys):
    """(exit status, stdout) of one job, argparse refusals included."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, JOB_SECONDS)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except _Overtime:
        pytest.fail(f"{argv} ran past {JOB_SECONDS} s")
    except Exception as exc:  # noqa: BLE001 - any escape is the failure
        pytest.fail(f"{argv} raised {exc!r}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, capsys.readouterr().out


def test_cli_fuzz(tmp_path, capsys):
    codes = {}
    start = time.perf_counter()
    for argv in _jobs(tmp_path):
        code, out = _run(argv, capsys)
        assert code in (0, 2, 3), (argv, code, out[:500])
        if out and argv[-2:] == ["--format", "json"]:
            json.loads(out)
        codes[code] = codes.get(code, 0) + 1
    assert sum(codes.values()) == JOBS
    # the mix reaches every outcome, so the generator is not stuck on one
    assert all(codes.get(code, 0) >= 10 for code in (0, 2, 3)), codes
    assert time.perf_counter() - start < 10

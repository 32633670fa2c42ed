"""Command-line surface: Smith forms, derived functors, group homology,
and the self-verification suites.

Every subcommand takes --format {text,json} and --output FILE. JSON output
is deterministic for a fixed job: keys are sorted, matrix entries are
decimal strings, and nothing time- or path-dependent is emitted.

    exacthom snf --input matrix.json
    exacthom derive --functor ext --n 2 --group "Z/4"
    exacthom grouphom --preset Z4 --coeff trivial --degrees 0..4 --method both
    exacthom verify all --seed 42 --format json
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Optional, Sequence

from .abelian import FgAbGroup, from_cyclic_orders
from .errors import InputError, InvariantViolation, ResourceBudgetError
from .grouphom import (
    DEFAULT_BAR_BUDGET,
    GModuleFree,
    _group_homologies,
    augmentation_ideal,
    group_ring,
)
from .koszul import check_budget, derived
from .linalg import IntMatrix, _decimal_to_int, _int_to_decimal, snf
from .powers import FunctorKind
from .presets import PRESET_NAMES, decode_group_file, load_preset
from .verify import SUITE_NAMES, run_all, run_four_term, run_suite

__all__ = [
    "JobSpec",
    "run",
    "main",
    "parse_group",
    "encode_matrix",
    "decode_matrix",
    "encode_group",
]

DEFAULT_SEED = 42  # every seeded verify suite uses this unless --seed overrides

# The most entries snf may write for U, A and V together: rows^2 + rows*cols
# + cols^2. The largest bundled or benchmarked input, sparse 15x30, needs 1575.
SNF_BUDGET = 2**20


def parse_group(text: str) -> FgAbGroup:
    """Parse the group grammar: `Z`, `Z^k`, `Z/k` joined by `+`, or `0`.

    The result is canonicalized, so "Z/2 + Z/3" comes back as Z/6 and
    str(parse_group(s)) == s exactly on canonical strings.
    """
    s = text.strip()
    if s == "0":
        return FgAbGroup(0)
    free_rank = 0
    orders: list[int] = []
    for raw in s.split("+"):
        part = raw.strip()
        if part == "Z":
            free_rank += 1
            continue
        for prefix, is_free in (("Z^", True), ("Z/", False)):
            if part.startswith(prefix):
                # an order may pass Python's int/str digit limit; a rank
                # that long could never be built, and stays a bad integer
                parse = int if is_free else _decimal_to_int
                try:
                    k = parse(part[len(prefix):])
                except ValueError:
                    raise InputError(f"bad integer in group term {part!r}") from None
                if k < 1:
                    raise InputError(f"group term {part!r} needs a positive integer")
                if is_free and k > sys.maxsize:
                    raise InputError(f"group term {part!r} has a rank too large to list")
                if is_free:
                    free_rank += k
                else:
                    orders.append(k)
                break
        else:
            raise InputError(f"cannot parse group term {part!r}")
    torsion = from_cyclic_orders(orders)
    return FgAbGroup(free_rank, torsion.invariant_factors)


def encode_matrix(m: IntMatrix) -> dict:
    try:
        entries = [list(map(str, row)) for row in m.entries]
    except ValueError:  # some entry is past the int -> str digit limit
        entries = [[_int_to_decimal(x) for x in row] for row in m.entries]
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def decode_matrix(obj: Any) -> IntMatrix:
    if not isinstance(obj, dict):
        raise InputError("matrix JSON must be an object")
    for name in ("rows", "cols", "entries"):
        if name not in obj:
            raise InputError(f"matrix JSON needs a {name!r} field")
    rows, cols = obj["rows"], obj["cols"]
    if any(isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in (rows, cols)):
        raise InputError("matrix dimensions must be nonnegative integers")
    grid_in = obj["entries"]
    if not isinstance(grid_in, list) or len(grid_in) != rows:
        raise InputError("entry grid does not match the declared row count")
    grid: list[list[int]] = []
    for row in grid_in:
        if not isinstance(row, list) or len(row) != cols:
            raise InputError("entry grid does not match the declared column count")
        parsed = []
        for x in row:
            # decimal strings keep arbitrary precision safe; bare ints accepted
            if isinstance(x, bool) or not isinstance(x, (int, str)):
                raise InputError("matrix entries must be integers or decimal strings")
            try:
                parsed.append(x if isinstance(x, int) else _decimal_to_int(x))
            except ValueError:
                raise InputError(f"bad matrix entry {x!r}") from None
        grid.append(parsed)
    return IntMatrix.from_rows(grid, cols=cols)


def _encode_order(x: int) -> int | str:
    """x as a JSON int, or as a decimal string when it is past str's digit limit."""
    try:
        str(x)
    except ValueError:
        return _int_to_decimal(x)
    return x


def encode_group(a: FgAbGroup) -> dict:
    return {
        "free_rank": a.free_rank,
        "invariant_factors": [_encode_order(x) for x in a.invariant_factors],
    }


@dataclass
class JobSpec:
    """One validated unit of CLI work."""

    command: str
    params: dict[str, Any] = field(default_factory=dict)
    output_format: str = "text"


# ---------------------------------------------------------------- executors


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from None
    except ValueError as err:  # JSONDecodeError, or a bare int too long to parse
        raise InputError(f"{path} is not valid JSON: {err}") from None


def _run_snf(params: dict) -> tuple[int, dict]:
    matrix = decode_matrix(_load_json(params["input"]))
    rows, cols = matrix.rows, matrix.cols
    if rows * rows + rows * cols + cols * cols > SNF_BUDGET:
        raise ResourceBudgetError(
            f"U, A and V of a {rows}x{cols} matrix are over the budget of {SNF_BUDGET} entries"
        )
    dec = snf(matrix)
    report = {
        "command": "snf",
        "rank": dec.rank,
        "diagonal": [_int_to_decimal(x) for x in dec.diagonal],
        "u": encode_matrix(dec.u),
        "d": encode_matrix(dec.d),
        "v": encode_matrix(dec.v),
        "cokernel": str(
            FgAbGroup(
                matrix.rows - dec.rank,
                tuple(x for x in dec.diagonal if x > 1),
            )
        ),
    }
    return 0, report


def _parse_paddings(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = int(part)
        except ValueError:
            raise InputError(f"bad padding {part!r} in list") from None
        if value < 0:
            raise InputError("paddings must be nonnegative")
        out.append(value)
    if not out:
        raise InputError("padding list is empty")
    return out


def _run_derive(params: dict) -> tuple[int, dict]:
    functor = FunctorKind.parse(params["functor"], params["n"])
    group = parse_group(params["group"])
    if params["check_independence"]:
        paddings = _parse_paddings(params["paddings"])
    else:
        paddings = [params["padding"]]
    for padding in paddings:
        check_budget(functor, group, padding)
    report: dict[str, Any] = {
        "command": "derive",
        "functor": str(functor),
        "group": str(group),
    }
    if params["check_independence"]:
        runs = []
        reference = None
        agree = True
        for padding in paddings:
            values = derived(functor, group, padding=padding).values
            if reference is None:
                reference = values
            elif values != reference:
                agree = False
            runs.append(
                {
                    "padding": padding,
                    "values": [str(v) for v in values],
                }
            )
        report["paddings"] = runs
        report["independent"] = agree
        return (0 if agree else 1), report
    result = derived(functor, group, padding=params["padding"])
    report["padding"] = params["padding"]
    report["values"] = [
        {"degree": i, "group": str(v), "json": encode_group(v)}
        for i, v in enumerate(result.values)
    ]
    return 0, report


def _parse_degrees(text: str) -> tuple[int, int]:
    s = text.strip()
    if ".." in s:
        lo_text, hi_text = s.split("..", 1)
    else:
        lo_text = hi_text = s
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise InputError(f"bad degree range {text!r}; expected A..B") from None
    if lo < 0 or hi < lo:
        raise InputError("degree range must satisfy 0 <= A <= B")
    return lo, hi


def _coefficient_module(table, which: str) -> GModuleFree:
    if which == "trivial":
        return GModuleFree.trivial(table, 1)
    if which == "regular":
        return group_ring(table)
    if which == "augmentation":
        return augmentation_ideal(table)
    raise InputError(f"unknown coefficient module {which!r}")


def _budget(params: dict) -> int:
    budget = params["budget"]
    if budget < 1:
        raise InputError(f"budget must be at least 1, got {budget}")
    return budget


def _run_grouphom(params: dict) -> tuple[int, dict]:
    budget = _budget(params)
    if params.get("preset"):
        preset = load_preset(params["preset"])
        table, source = preset.table, params["preset"]
    else:
        path = params["group_file"]
        preset = decode_group_file(_load_json(path), name=path)
        table, source = preset.table, path
    coeff = _coefficient_module(table, params["coeff"])
    lo, hi = _parse_degrees(params["degrees"])
    method = params["method"]
    if hi - lo + 1 > budget:
        raise ResourceBudgetError(f"degrees {lo}..{hi} are {hi - lo + 1} degrees, budget is {budget}")
    degrees = range(lo, hi + 1)
    if method == "both":
        auto = _group_homologies(coeff, degrees, "auto", budget)
        bar = _group_homologies(coeff, degrees, "bar", budget)
        code = 0 if auto == bar else 1
        rows = [
            {"degree": i, "auto": str(a), "bar": str(b), "agree": a == b}
            for i, a, b in zip(degrees, auto, bar)
        ]
    else:
        values = _group_homologies(coeff, degrees, method, budget)
        code = 0
        # a long range repeats a few groups: each distinct one is written once
        text = {v: (str(v), encode_group(v)) for v in set(values)}
        rows = [{"degree": i, "group": text[v][0], "json": text[v][1]} for i, v in zip(degrees, values)]
    report = {
        "command": "grouphom",
        "group": source,
        "order": table.order,
        "coefficients": params["coeff"],
        "method": method,
        "homology": rows,
    }
    return code, report


def _run_verify(params: dict) -> tuple[int, dict]:
    suite = params["suite"]
    seed = params["seed"]
    budget = _budget(params)
    preset = params.get("preset")
    only_n = params.get("n")
    if (preset is not None or only_n is not None) and suite != "four-term":
        raise InputError("--preset and --n apply only to the four-term suite")
    if suite == "all":
        suites = run_all(seed, budget)
    elif suite == "four-term":
        suites = [run_four_term(budget, only_preset=preset, only_n=only_n)]
    else:
        suites = [run_suite(suite, seed, budget)]
    passed = all(s["passed"] for s in suites)
    report = {
        "command": "verify",
        "seed": seed,
        "budget": budget,
        "suites": suites,
        "passed": passed,
    }
    return (0 if passed else 1), report


_EXECUTORS = {
    "snf": _run_snf,
    "derive": _run_derive,
    "grouphom": _run_grouphom,
    "verify": _run_verify,
}


# ---------------------------------------------------------------- rendering


def _matrix_block(label: str, obj: dict) -> list[str]:
    """An encoded matrix laid out as str(IntMatrix) does, from its decimal
    strings, so no entry is converted twice."""
    rows, cols, text = obj["rows"], obj["cols"], obj["entries"]
    if rows == 0 or cols == 0:
        return [f"{label}:", f"  <empty {rows}x{cols}>"]
    widths = [max(len(row[j]) for row in text) for j in range(cols)]
    return [f"{label}:"] + [
        "  [" + "  ".join(t.rjust(w) for t, w in zip(row, widths)) + "]" for row in text
    ]


def _text_snf(report: dict) -> str:
    lines = [
        f"rank {report['rank']}",
        "diagonal " + (", ".join(report["diagonal"]) if report["diagonal"] else "(empty)"),
        f"cokernel {report['cokernel']}",
    ]
    lines.extend(_matrix_block("U", report["u"]))
    lines.extend(_matrix_block("D", report["d"]))
    lines.extend(_matrix_block("V", report["v"]))
    return "\n".join(lines) + "\n"


def _text_derive(report: dict) -> str:
    head = f"L({report['functor']})({report['group']})"
    lines = [head]
    if "paddings" in report:
        for entry in report["paddings"]:
            values = ", ".join(entry["values"])
            lines.append(f"  padding {entry['padding']}: {values}")
        verdict = "agree" if report["independent"] else "DISAGREE"
        lines.append(f"presentation independence: {verdict}")
    else:
        for entry in report["values"]:
            lines.append(f"  L_{entry['degree']} = {entry['group']}")
    return "\n".join(lines) + "\n"


def _text_grouphom(report: dict) -> str:
    lines = [
        f"group {report['group']} (order {report['order']}), "
        f"coefficients {report['coefficients']}, method {report['method']}"
    ]
    for row in report["homology"]:
        if "agree" in row:
            mark = "ok" if row["agree"] else "MISMATCH"
            lines.append(f"  H_{row['degree']} auto={row['auto']} bar={row['bar']} [{mark}]")
        else:
            lines.append(f"  H_{row['degree']} = {row['group']}")
    return "\n".join(lines) + "\n"


def _text_verify(report: dict) -> str:
    lines = []
    for suite in report["suites"]:
        mark = "PASS" if suite["passed"] else "FAIL"
        lines.append(f"suite {suite['suite']}: {mark} ({suite['cases']} cases)")
        if suite["suite"] == "four-term":
            for detail in suite.get("details", []):
                quad = ", ".join(detail["quadruple"])
                verdict = "PASS" if detail["passed"] else "FAIL"
                lines.append(
                    f"  {detail['group']}/presentation{detail['presentation']} "
                    f"n={detail['n']}: ({quad}) {verdict}"
                )
        for failure in suite["failures"]:
            lines.append(f"  failure: {failure}")
    lines.append(f"overall: {'PASS' if report['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


_TEXT_RENDERERS = {
    "snf": _text_snf,
    "derive": _text_derive,
    "grouphom": _text_grouphom,
    "verify": _text_verify,
}


def _json(obj: Any, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, with the
    line break and indent of obj's depth in indent.

    With indent set, json.dumps runs its pure-Python encoder; this writes
    the containers of a report directly and quotes a list of strings, such
    as a row of U, D or V, with json's own C string encoder in one join.
    Any value other than str, int, bool, None, a list or a dict with str
    keys is written by json.dumps, shifted to the depth."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    inner = indent + "  "
    if kind is list:
        if not obj:
            return "[]"
        try:  # the C encoder takes only strings, as json.dumps quotes them
            return "[" + inner + ("," + inner).join(map(encode_basestring_ascii, obj)) + indent + "]"
        except TypeError:
            return "[" + inner + ("," + inner).join(_json(x, inner) for x in obj) + indent + "]"
    if kind is dict and all(type(k) is str for k in obj):
        if not obj:
            return "{}"
        items = (encode_basestring_ascii(k) + ": " + _json(obj[k], inner) for k in sorted(obj))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", indent)


def _render(job: JobSpec, report: dict) -> str:
    if job.output_format == "json":
        return _json(report) + "\n"
    return _TEXT_RENDERERS[job.command](report)


def _render_error(job: JobSpec, kind: str, message: str) -> str:
    if job.output_format == "json":
        return _json({"command": job.command, "error": kind, "message": message}) + "\n"
    return f"error ({kind}): {message}\n"


def run(job: JobSpec) -> tuple[int, str]:
    """Execute a job; returns (exit status, rendered report).

    Exit statuses: 0 success, 1 violated mathematical invariant, 2 malformed
    input, 3 resource budget exceeded, including memory that ran out.
    """
    if job.command not in _EXECUTORS:
        return 2, _render_error(job, "input", f"unknown command {job.command!r}")
    try:
        code, report = _EXECUTORS[job.command](job.params)
    except ResourceBudgetError as err:
        return 3, _render_error(job, "budget", str(err))
    except MemoryError:
        return 3, _render_error(job, "budget", f"{job.command} ran out of memory")
    except InputError as err:
        return 2, _render_error(job, "input", str(err))
    except InvariantViolation as err:
        return 1, _render_error(job, "invariant", str(err))
    return code, _render(job, report)


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    common.add_argument("--output", metavar="FILE", help="write the report to FILE")

    parser = argparse.ArgumentParser(
        prog="exacthom",
        description="Exact integer homological algebra: Smith forms, derived "
        "functors of power operations, and finite group homology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_snf = sub.add_parser("snf", parents=[common], help="Smith normal form of a matrix")
    p_snf.add_argument("--input", required=True, metavar="FILE", help="matrix JSON file")

    p_derive = sub.add_parser(
        "derive", parents=[common], help="derived functors of a power operation"
    )
    p_derive.add_argument(
        "--functor", required=True, choices=("sym", "ext", "tensor", "div")
    )
    p_derive.add_argument("--n", required=True, type=int, help="power degree (>= 1)")
    p_derive.add_argument(
        "--group", required=True, metavar="EXPR", help='e.g. "Z/4", "Z^2 + Z/6", "0"'
    )
    p_derive.add_argument("--padding", type=int, default=0, help="extra presentation rank")
    p_derive.add_argument(
        "--check-independence",
        action="store_true",
        help="recompute across several paddings and compare",
    )
    p_derive.add_argument(
        "--paddings", default="0,1,2", metavar="LIST", help="comma-separated paddings"
    )

    p_gh = sub.add_parser("grouphom", parents=[common], help="finite group homology")
    source = p_gh.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESET_NAMES)
    source.add_argument("--group-file", metavar="FILE", help="group JSON file")
    p_gh.add_argument(
        "--coeff", choices=("trivial", "regular", "augmentation"), default="trivial"
    )
    p_gh.add_argument("--degrees", default="0..2", metavar="A..B")
    p_gh.add_argument("--method", choices=("auto", "bar", "both"), default="auto")
    p_gh.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BAR_BUDGET,
        help="max entries (rows*cols) of each normalized bar differential (bar, both), "
        "of the product window's differentials together (auto on a non-cyclic group "
        "that splits over its generating set) or of the relation-module coinvariant "
        "matrix (auto on a group that does not split), and max number of degrees; the "
        "periodic route (auto on a cyclic group) has no entry budget",
    )

    p_verify = sub.add_parser("verify", parents=[common], help="self-verification suites")
    p_verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BAR_BUDGET,
        help="max entries (rows*cols) of the differentials that give A and D (the "
        "product window on a group that splits over its generating set, as every "
        "preset does, each normalized bar differential otherwise) and of each "
        "four-term coinvariant matrix, and max four-term degree n",
    )
    p_verify.add_argument(
        "--preset", choices=PRESET_NAMES, help="four-term only: restrict to one group"
    )
    p_verify.add_argument(
        "--n", type=int, help="four-term only: restrict to one sequence degree"
    )
    return parser


def job_from_args(args: argparse.Namespace) -> JobSpec:
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "format", "output")
    }
    return JobSpec(command=args.command, params=params, output_format=args.format)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    code, text = run(job_from_args(args))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            sys.stderr.write(f"error (output): cannot write {args.output}: {err}\n")
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's tracer wraps exacthom functions by name from outside
(perfbench/tracing.py); a rename in the package must fail here, not only in
the benchmark's own smoke test. So must a builder that derived reaches
without passing the wrapper, which would read 0 in the koszul.build spans,
and so must a grouphom --method bar request whose bar route drops out of
the trace, an auto one that falls back to the bar route, builds a tensor
module or, on Z2xZ2, builds a Magnus sequence, a kernel or solution that goes back through the Smith transforms of
snf, Smith transforms that swell again, a derive job that needs the bounded
modular Smith route or a dense product, sparse differentials whose dense
view the tracer miscounts, or an exterior power that goes back to
determinants."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULES = ("abelian", "cli", "grouphom", "koszul", "linalg", "powers", "presets", "verify")

# Runs in a child process: install() rebinds module globals for good.
SCRIPT = f"""
import importlib, json, os, random, sys, tempfile
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "perfbench")!r}]
for name in {MODULES!r}:
    importlib.import_module("exacthom." + name)
import tracing
tracer = tracing.Tracer()
tracer.install()
# one exterior power, traced first: it comes from the multiplication
# table, not from a determinant per pair of subsets
from exacthom.linalg import IntMatrix
from exacthom.powers import FunctorKind, induced_map
rng = random.Random("bench-hooks-ext")
tracer.begin_job("ext")
induced_map(FunctorKind.parse("ext", 3), IntMatrix.from_rows(
    [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
))
tracer.end_job(0.0)
metrics = tracer.metrics(1)
for name, want in (("powers.induced_map", 1), ("linalg.det", 0)):
    calls = metrics[name + ".calls"]
    assert calls == want, (name, calls)
# one job through derived: every builder it reaches must be the wrapped one
from exacthom.abelian import FgAbGroup
from exacthom.koszul import derived
tracer.begin_job("builders")
for kind in ("sym", "ext", "tensor"):
    derived(FunctorKind.parse(kind, 2), FgAbGroup(0, (2, 4)))
tracer.end_job(0.0)
metrics = tracer.metrics(1)
assert metrics["koszul.build.calls"] == 3, metrics["koszul.build.calls"]
# the nonzeros the dense builders wrote for these three complexes
assert metrics["koszul.build.nnz"] == 28, metrics["koszul.build.nnz"]
assert metrics["linalg.matmul.calls"] == 0, metrics["linalg.matmul.calls"]
# one kernel and one solution: the Hermite route must not reach snf
from exacthom import linalg
tracer.begin_job("lattice")
a = linalg.IntMatrix.from_rows([[2, 4, 6], [3, 6, 9]])
linalg.kernel_basis(a)
linalg.solve(a, linalg.IntMatrix.column([4, 6]))
tracer.end_job(0.0)
metrics = tracer.metrics(1)
for name, want in (("kernel_basis", 1), ("solve", 1), ("snf", 0)):
    calls = metrics["linalg." + name + ".calls"]
    assert calls == want, (name, calls)
# three grouphom jobs through the CLI: --method bar must show the bar route
# in the trace, auto on Z2xZ2 the product resolution (no Magnus sequence and
# no bar), and auto on S3, which does not split, one Magnus sequence and no
# bar; none builds a tensor module, since the sequence reads the factors'
# actions
from exacthom import cli
perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
s3 = {{"table": {{"order": 6, "mult": [[perms.index(tuple(x[y[k]] for k in range(3))) for y in perms]
                                   for x in perms]}},
      "presentations": [{{"generators": ["a", "b"], "relators": ["aaa", "bb", "abab"],
                          "assignment": [1, 3]}}]}}
with tempfile.TemporaryDirectory() as tmp:
    s3_path = os.path.join(tmp, "S3.json")
    with open(s3_path, "w") as fh:
        json.dump(s3, fh)
    for source, method, bar, magnus, group in (
        (["--preset", "Z2xZ2"], "bar", 1, 0, "Z/2"),
        (["--preset", "Z2xZ2"], "auto", 0, 0, "Z/2"),
        (["--group-file", s3_path], "auto", 0, 1, "0"),
    ):
        before = {{name: tracer.stats[name][0] for name in tracer.stats}}
        tracer.begin_job(method)
        argv = ["grouphom", *source, "--degrees", "2..2", "--method", method, "--format", "json"]
        code, text = cli.run(cli.job_from_args(cli.build_parser().parse_args(argv)))
        assert code == 0 and f'"group": "{{group}}"' in text, text
        tracer.end_job(0.0)
        wants = (("cli.run", 1), ("grouphom.homology_bar", bar), ("grouphom.magnus_sequence", magnus),
                 ("grouphom.tensor_gmodule", 0))
        for name, want in wants:
            calls = tracer.stats[name][0] - before[name]
            assert calls == want, (source, method, name, calls)
# one snf job through the CLI on a dense 8 x 8 input: U and V stay short
rng = random.Random(1)
rows = [[rng.randint(-9, 9) for _ in range(8)] for _ in range(8)]
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "m.json")
    with open(path, "w") as fh:
        json.dump({{"rows": 8, "cols": 8, "entries": rows}}, fh)
    tracer.begin_job("snf")
    code, text = cli.run(cli.job_from_args(cli.build_parser().parse_args(["snf", "--input", path])))
    assert code == 0, text
    tracer.end_job(0.0)
bits = tracer.metrics(1)["linalg.snf.out_bits"]
assert bits <= 64, bits
# one derive job on a random padding: smith_diagonal stays integral
from exacthom.koszul import derived_from_presentation, random_padded_presentation
pres = random_padded_presentation(FgAbGroup(0, (2, 4)), 6, random.Random("bench-hooks"))
before = tracer.stats["linalg.smith_diagonal"][0]
products = tracer.stats["linalg.matmul"][0]
tracer.begin_job("derive")
derived_from_presentation(FunctorKind.parse("tensor", 2), pres)
tracer.end_job(0.0)
assert tracer.stats["linalg.smith_diagonal"][0] > before
assert tracer.stats["linalg.matmul"][0] == products, "d(d(x)) = 0 went through a dense product"
fallbacks = tracer.counts["linalg.smith_diagonal.fallbacks"]
assert fallbacks == 0, fallbacks
"""


def test_tracer_installs_on_every_wrapped_function():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr

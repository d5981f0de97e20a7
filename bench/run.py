"""coptree benchmark: one workload as a closed loop, every output checked.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from ``--seed``, times ``import coptree``
in fresh interpreters (``setup_s``), runs the workload's operation back to
back for ``--seconds`` in a worker process, checks the outputs against a
reference tree built by ``reference.py``, writes a result file with
provenance under ``.bench_build/coptree-bench/results/`` and prints a
readable report.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.
See README.md for the workloads, the metrics and what each should move.
"""
from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Cap BLAS threads before numpy loads here or in any child process.
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
from spans import LAYERS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "coptree-bench"
LAUNCHES = 7  # fresh interpreters per run for setup_s and the import.* split

END_TO_END = {"wall_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.python_s": "s", "import.numpy_s": "s", "import.scipy_s": "s",
    "import.coptree_s": "s",
    "cli.main_s": "s", "cli.serialize_s": "s",
    "dataset.load_s": "s", "dataset.load_MBps": "MB/s",
    "dataset.rank_s": "s", "dataset.rank_cols": "count",
    "measures.weights_s": "s", "measures.pair_calls": "count",
    "measures.pair_us": "us", "measures.cells_per_s": "1/s",
    "measures.kde_s": "s", "measures.kde_evals": "count",
    "measures.kde_evals_per_s": "1/s",
    "structure.tree_s": "s", "structure.coverage_s": "s",
    "trace.wall_p50_s": "s", "trace.unattributed_s": "s", "trace.overhead_s": "s",
}


def child_env() -> dict:
    """The environment of every process the benchmark starts: the checked-out
    ``src`` first on the path, BLAS threads capped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch(argv, timeout=120) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def timed_launches(code: str, count: int, flags=()):
    """``(wall_s, process)`` for ``count`` fresh interpreters running ``code``,
    after one untimed launch that warms the bytecode cache."""
    argv = [sys.executable, *flags, "-c", code]
    launch(argv)
    out = []
    for _ in range(count):
        start = time.perf_counter()
        proc = launch(argv)
        out.append((time.perf_counter() - start, proc))
    return out


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_split(stderr: str) -> dict:
    """numpy, scipy and coptree (self) seconds from ``-X importtime`` output.

    numpy's and scipy's times are the cumulative times of their outermost
    entries under ``coptree``; numpy modules that scipy pulls in count as
    scipy.  The output lists children before their parent, so walk it
    backwards.
    """
    totals = {"numpy": 0.0, "scipy": 0.0, "coptree": 0.0}
    ancestors = []  # (depth, top-level package) of the enclosing entries
    for line in reversed(stderr.splitlines()):
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        cumulative, depth, name = int(match[2]), len(match[3]), match[4]
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".")[0]
        enclosing = {p for _, p in ancestors}
        if name == "coptree" or (package in ("numpy", "scipy") and "coptree" in enclosing
                                 and not enclosing & {"numpy", "scipy"}):
            totals[package] += cumulative * 1e-6
        ancestors.append((depth, package))
    totals["coptree"] -= totals["numpy"] + totals["scipy"]
    return totals


def import_layers(count: int) -> dict:
    floor = timed_launches("pass", count)
    runs = timed_launches("import coptree", count, flags=("-X", "importtime"))
    splits = [import_split(proc.stderr) for _, proc in runs]
    out = {"import.python_s": statistics.median(wall for wall, _ in floor)}
    for package in ("numpy", "scipy", "coptree"):
        out[f"import.{package}_s"] = statistics.median(s[package] for s in splits)
    return out


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    try:
        # The ceiling stops git from reporting a repository that encloses ROOT.
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_loop_ms() -> float:
    """Median of 5 timings of a fixed pure-Python loop, in ms.

    Recorded, never used to correct a metric: on a shared host it reads
    higher while other tenants load the same physical cores, which tells
    a reader comparing two result files whether the host was in the same
    phase for both.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": NPROC,
        "cpu_model": cpu,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def failed_operations(worker: dict, problems: list) -> int:
    """Operations that raised, exited nonzero or returned a wrong tree.

    Every output is compared byte for byte with the first, and the first
    with the reference tree; if the first is wrong, so is every copy of it.
    """
    if problems:
        return worker["attempted"]
    return worker["errors"] + worker["mismatches"]


def output_problems(workload, made: dict, first) -> list:
    """What is wrong with the first output, against the reference tree."""
    if first is None:
        return ["no operation produced an output"]
    sys.path.insert(0, str(SRC))
    import coptree

    values = made["values"]
    ranks = coptree.column_ranks(values, "random", made["spec"]["tie_seed"])
    ref = reference.reference_tree(made["spec"]["columns"], values, ranks, workload.measure)
    return reference.output_problems(ref, first)


def layer_metrics(untraced, traced, imports: dict, workload, provenance: dict) -> dict:
    median = statistics.median
    rows, cols = provenance["T"], provenance["N"]
    pairs = cols * (cols - 1) // 2
    self_s = {layer: median(op["self_s"][layer] for op in traced) for layer in LAYERS}
    counts = {name: median(op["counts"][name] for op in traced) for name in traced[0]["counts"]}
    # The CLI operation pays interpreter start and imports inside its wall.
    imported = sum(imports.values()) if workload.kind == "cli" else 0.0
    traced_p50 = median(op["wall_s"] for op in traced)
    load_s, weights_s, kde_s = (self_s[k] for k in ("dataset.load", "measures.weights", "measures.kde"))
    csv_mb = provenance["input"]["bytes"] / 1e6 if workload.kind != "memory" else 0.0
    metrics = dict(imports)
    metrics.update({
        "cli.main_s": self_s["cli.main"],
        "cli.serialize_s": self_s["cli.serialize"],
        "dataset.load_s": load_s,
        "dataset.load_MBps": csv_mb / load_s if load_s > 0 else 0.0,
        "dataset.rank_s": self_s["dataset.rank"],
        "dataset.rank_cols": counts["rank_cols"],
        "measures.weights_s": weights_s,
        "measures.pair_calls": counts["pair_calls"],
        "measures.pair_us": weights_s / pairs * 1e6,
        "measures.cells_per_s": rows * pairs / weights_s,
        "measures.kde_s": kde_s,
        "measures.kde_evals": counts["kde_evals"],
        "measures.kde_evals_per_s": counts["kde_evals"] / kde_s if kde_s > 0 else 0.0,
        "structure.tree_s": self_s["structure.tree"],
        "structure.coverage_s": self_s["structure.coverage"],
        "trace.wall_p50_s": traced_p50,
        "trace.unattributed_s": median(
            op["wall_s"] - sum(op["self_s"].values()) - imported for op in traced),
        "trace.overhead_s": traced_p50 - median(op["wall_s"] for op in untraced),
    })
    return metrics


def layer_report(metrics: dict, workload) -> list:
    wall = metrics["trace.wall_p50_s"]
    rows = [(name, metrics[name]) for name in PER_LAYER if name.endswith("_s")
            and not name.endswith("per_s") and not name.startswith("trace.")
            and (workload.kind == "cli" or not name.startswith("import."))]
    rows.append(("trace.unattributed_s", metrics["trace.unattributed_s"]))
    lines = [f"{'layer self time':<26}{'s':>12}{'share of traced wall':>24}"]
    lines += [f"{name:<26}{value:>12.6f}{value / wall:>23.1%}" for name, value in rows]
    lines.append(f"{'trace.wall_p50_s':<26}{wall:>12.6f}")
    if workload.kind != "cli":
        lines.append("(import.* are paid before the operations here: see setup_s)")
    return lines


def run(workload, seed: int, seconds: float, trace: int, launches: int = LAUNCHES):
    """Run one workload; returns (result line dict, report lines, result file)."""
    if not (SRC / "coptree" / "__init__.py").is_file():
        raise FileNotFoundError(f"no coptree package under {SRC}")
    workdir = WORK / f"{workload.name}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    host_before = host_loop_ms()
    try:
        made = inputs.make_inputs(workload, seed, ROOT, workdir)
        provenance = {"workload": workload.name, "seed": seed, "git_commit": git_commit(),
                      **made["provenance"], "K": reference.default_lattice_order(
                          made["provenance"]["T"]), **machine()}
        if trace:
            imports = import_layers(launches)
        else:
            setup = [wall for wall, _ in timed_launches("import coptree", launches)]
        spec = {**made["spec"], "root": str(ROOT), "src": str(SRC),
                "workdir": str(workdir), "seconds": seconds, "trace": trace}
        spec_path, result_path = workdir / "spec.json", workdir / "worker.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        launch([sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
               timeout=seconds + 150)
        worker = json.loads(result_path.read_text(encoding="utf-8"))
        provenance["host_loop_ms"] = [host_before, host_loop_ms()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [op for op in worker["timed"] if not op["traced"]]
    traced = [op for op in worker["timed"] if op["traced"]]
    if not untraced or (trace and not traced):
        raise RuntimeError(f"no timed operation succeeded: {worker['error_messages'][:3]}")
    problems = output_problems(workload, made, worker["first_output"])
    attempted = worker["attempted"]
    failed = failed_operations(worker, problems)
    lines = [f"coptree benchmark  workload={workload.name} seed={seed} trace={trace}  "
             f"T={provenance['T']} N={provenance['N']} K={provenance['K']} "
             f"measure={workload.measure}",
             f"closed loop, 1 client, BLAS threads {NPROC}; {attempted} operations "
             f"attempted (1 warm-up), {failed} failed"]
    lines.append("host loop: {:.1f} ms before, {:.1f} ms after (higher on a busier host)"
                 .format(*provenance["host_loop_ms"]))
    lines += [f"problem: {p}" for p in problems[:5]]
    lines += [f"error: {m}" for m in worker["error_messages"][:5]]
    if trace:
        metrics = layer_metrics(untraced, traced, imports, workload, provenance)
        lines += layer_report(metrics, workload)
        lines += [f"{name:<26}{metrics[name]:>16.6f} {unit}" for name, unit in PER_LAYER.items()]
        units = PER_LAYER
    else:
        median = statistics.median
        metrics = {
            "wall_p50_s": median(op["wall_s"] for op in untraced),
            "setup_s": median(setup),
            "peak_rss_mb": worker["maxrss_kb"] / 1024.0,
        }
        units = END_TO_END
        lines += [
            f"{'wall_p50_s':<14}{metrics['wall_p50_s']:>12.6f} s      ops={len(untraced)}",
            f"{'setup_s':<14}{metrics['setup_s']:>12.6f} s      launches={launches}",
            f"{'peak_rss_mb':<14}{metrics['peak_rss_mb']:>12.3f} MB",
            f"{'error_rate':<14}{failed / attempted:>12.6f} ratio  ({failed} of {attempted})",
        ]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {**result, "ops": len(untraced), "error_rate": failed / attempted,
              "problems": problems, "error_messages": worker["error_messages"],
              "provenance": provenance, "timed": worker["timed"],
              "setup_s": [] if trace else setup}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    lines.append(f"result file: {path.relative_to(ROOT)}")
    return result, lines, path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines, _ = run(inputs.WORKLOADS[args.workload], args.seed, args.seconds,
                               args.trace)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as error:
        sys.stderr.write(f"error: {error}\n")
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark on REF and on the working tree in alternating pairs.

Usage, from the repository root:

    python scripts/pair_bench.py REF --workload W [--pairs 10] [--seconds 20] [--seed 0]

REF is any git revision.  Its files are unpacked with ``git archive`` into
a temporary directory, so neither the index nor the working tree is
touched.  Each pair runs the unchanged ``bench/run.py --trace 0`` once in
that copy and once in the working tree, one run at a time; the side that
goes first alternates from pair to pair, REF first in the first pair.

Prints one line per run, then, for each end-to-end metric of
BENCHMARK.json, both medians, the interquartile range of REF's runs and
the working tree's wins, ties and losses over the pairs ("better" as
BENCHMARK.json says).  Lists every run that failed or was marked
incorrect; such a run is left out of its metric's pairs.  Writes nothing
under ``bench/``: ``bench/run.py`` keeps its result files under each
tree's ``.bench_build/``.  Exits 1 if any run failed or was marked
incorrect, 2 if REF cannot be unpacked, and 0 otherwise.
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict | None, str]:
    """The result line of one ``bench/run.py --trace 0`` run in ``root``, or
    None and the reason the run gave no usable result."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, f"exit {done.returncode}: {done.stderr.strip()[-500:]}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, f"no result line: {lines[-1][:200]!r}"
    if not result["correct"] or result["failed"]:
        return result, f"marked incorrect: {result['failed']} of {result['attempted']} failed"
    return result, ""


def iqr(values: list[float]) -> float:
    """Distance between the first and third quartiles."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git revision to compare the working tree against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    archive = subprocess.run(["git", "archive", "--format=tar", args.ref],
                             cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        sys.stderr.write(archive.stderr.decode(errors="replace"))
        return 2
    runs = {"ref": [], "new": []}
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            # extraction filters reached 3.10.12 and 3.11.4; older
            # interpreters unpack this archive of the repository unfiltered
            filters = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            tar.extractall(tmp, **filters)
        trees = {"ref": Path(tmp), "new": ROOT}
        for pair in range(args.pairs):
            sides = ("ref", "new") if pair % 2 == 0 else ("new", "ref")
            for side in sides:
                result, problem = bench_once(trees[side], args.workload, args.seed, args.seconds)
                values = {} if result is None else {
                    m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
                runs[side].append(None if problem else values)
                if problem:
                    problems.append(f"pair {pair + 1} {side}: {problem}")
                print(f"pair {pair + 1:2d} {side} ({'first' if side == sides[0] else 'second'}): "
                      + "  ".join(f"{name} {value:.6g}" for name, value in values.items()),
                      flush=True)
    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, seed {args.seed}, "
          f"{args.ref} (ref) against the working tree (new)")
    print(f"{'metric':<14}{'ref median':>14}{'new median':>14}{'ref IQR':>12}"
          f"{'wins':>6}{'ties':>6}{'losses':>8}")
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        pairs = [(r[name], n[name]) for r, n in zip(runs["ref"], runs["new"]) if r and n]
        ref = [r for r in runs["ref"] if r]
        new = [n for n in runs["new"] if n]
        if not ref or not new:
            print(f"{name:<14}  no complete run on one side")
            continue
        wins = sum(sign * (n - r) < 0 for r, n in pairs)
        losses = sum(sign * (n - r) > 0 for r, n in pairs)
        print(f"{name:<14}{statistics.median(x[name] for x in ref):>14.6g}"
              f"{statistics.median(x[name] for x in new):>14.6g}"
              f"{iqr([x[name] for x in ref]):>12.4g}"
              f"{wins:>6}{len(pairs) - wins - losses:>6}{losses:>8}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

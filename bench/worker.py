"""Closed-loop worker: runs one workload's operation back to back.

Usage: python worker.py SPEC_JSON RESULT_JSON

``run.py`` writes the spec after generating the inputs, so this process
holds only what the operations need, and its peak RSS is theirs (for the
CLI workload, the peak of the CLI processes it launches).  One client runs
one operation at a time.  The first operation is a warm-up and is not
timed.  With tracing on, timed operations alternate untraced and traced,
so the traced and untraced medians see the same machine state.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import subprocess
import sys
import time

from spans import Tracer


def _cli_ops(spec):
    """(untraced op, traced op) that launch ``coptree learn`` processes."""
    args = ["learn", "--input", spec["input"], "--measure", spec["measure_flag"],
            "--tie-seed", str(spec["tie_seed"])]
    traced_script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_traced.py")
    spans_path = os.path.join(spec["workdir"], "cli-spans.json")

    def launch(argv):
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=spec["root"],
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout

    def untraced(tracer):
        return launch([sys.executable, "-m", "coptree.cli", *args])

    def traced(tracer):
        output = launch([sys.executable, traced_script, spans_path, *args])
        with open(spans_path, encoding="utf-8") as handle:
            summary = json.load(handle)
        os.remove(spans_path)
        return output, summary

    return untraced, traced


def _in_process_ops(spec):
    import numpy as np

    import coptree
    from coptree import cli

    if spec["kind"] == "csv":
        def learn():
            data = coptree.load_dataset(spec["input"])
            return coptree.learn_structure(data, measure=spec["measure"])
    else:
        data = coptree.Dataset(tuple(spec["columns"]), np.load(spec["input"]))

        def learn():
            return coptree.learn_structure(data, measure=spec["measure"])

    def untraced(tracer):
        tree = learn()
        with tracer.span("cli.serialize") if tracer else contextlib.nullcontext():
            return json.dumps(cli.tree_as_dict(tree))

    def traced(tracer):
        first = len(tracer.spans)
        tracer.reset_counts()
        tracer.install()
        try:
            output = untraced(tracer)
        finally:
            tracer.uninstall()
        return output, tracer.summary(first)

    return untraced, traced


def run(spec) -> dict:
    cli = spec["kind"] == "cli"
    untraced, traced = (_cli_ops if cli else _in_process_ops)(spec)
    tracer = Tracer() if spec["trace"] and not cli else None
    result = {"attempted": 0, "errors": 0, "mismatches": 0, "error_messages": [],
              "first_output": None, "timed": []}

    def attempt(with_trace):
        """One operation; its timing entry, or None if it failed."""
        result["attempted"] += 1
        start = time.perf_counter()
        try:
            if with_trace:
                output, summary = traced(tracer)
            else:
                output, summary = untraced(None), {}
        except Exception as error:  # every failure is counted, the loop goes on
            result["errors"] += 1
            result["error_messages"].append(repr(error)[:500])
            return None
        wall = time.perf_counter() - start
        if result["first_output"] is None:
            result["first_output"] = output
        elif output != result["first_output"]:
            result["mismatches"] += 1
        return {"wall_s": wall, "traced": with_trace, **summary}

    attempt(with_trace=False)  # warm-up, not timed
    deadline = time.perf_counter() + spec["seconds"]
    step = 0
    while True:
        entry = attempt(with_trace=bool(spec["trace"]) and step % 2 == 1)
        if entry is not None:
            result["timed"].append(entry)
        step += 1
        if time.perf_counter() >= deadline and (not spec["trace"] or step >= 2):
            break
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    result["maxrss_kb"] = resource.getrusage(who).ru_maxrss
    return result


def main(argv) -> int:
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    result = run(spec)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Check that the package under src/ gives the same output bytes as at REF.

Usage, from the repository root:

    python scripts/compare_outputs.py REF

REF is any git revision (``HEAD~``, a branch, a commit).  Its ``src/`` is
unpacked with ``git archive`` into a temporary directory, so neither the
index nor the working tree is touched, and nothing is fetched.  Both
copies of the package then run the same cases in fresh interpreters:

- ``coptree learn`` on data/housing.csv: the --json file, the --dot file
  and stdout, for each measure and tie seeds 0 and 1;
- the same for each measure on a 1000 x 8 table whose untied and tied
  columns alternate, generated from a fixed seed into the temporary
  directory (every housing column is tied, so only this table shows
  which columns draw a random tie order);
- ``coptree learn`` (each measure) on a 300 x 4 table whose header quotes
  one name that spans two lines, generated into the temporary directory;
- ``coptree learn`` (each measure) on a 200 x 5 table that opens with a
  blank line and a whitespace-only line before its header, generated
  into the temporary directory;
- ``coptree measure`` stdout for three column pairs (all tied in
  housing) and each measure, with the default tie seed and with
  ``--tie-seed 1``;
- ``coptree synth`` on data/synthetic_spec.json, with and without
  ``--seed 7``: stdout and the output CSV;
- the exit code and stderr of runs that must fail: ``learn`` with
  ``--tie-seed -1``, ``--lattice-order 1`` and ``--lattice-order 20000``,
  and ``synth`` on copies of the spec, written into the temporary
  directory, with one bad field each (the output CSV, which none of them
  may write, is compared too);
- ``coptree learn`` with a --json file it can write and a --dot file in a
  missing directory, and the reverse: the exit code, stderr and the
  names of the files the run leaves in its directory, which must be none
  of the destinations;
- ``column_ranks`` (both tie modes) and ``weight_matrix`` ``values`` and
  ``signed`` (each measure) on a tied 4177 x 9, a tied 50000 x 16, a
  tied 40000 x 40 and a tied 500 x 300 table, saved with ``np.save`` so
  dtype and shape are compared too, the ``maximum_spanning_tree`` edges
  of each weight matrix in the order they join the tree, and the
  ``repr`` of ``learn_structure``'s ``coverage_ratio`` on each table for
  each measure (the default lattice orders 14 and 44 do not divide 4177
  and 40000, so only those tables give ``mi_kde`` a nonzero gap over
  ``mi_cell``; at order 44 the MI kernel counts 26 columns per block, so
  the pairs of each of the 40000 x 40 table's columns 0-12 are counted
  in two blocks, the only case that crosses a block boundary);
- on each of those four tables, the tree edges and the ``repr`` of the
  ``coverage_ratio`` of a ``rho_abs`` matrix rebuilt by the public
  ``WeightMatrix`` constructor with every score negated, which spans on
  the same weights |s| from scores of the other sign;
- ``copula_cdf_grid`` and ``copula_mass_grid`` ``values`` of the first 1,
  2 and 3 columns of the tied 500 x 300 table's ranks, under both tie
  modes, at lattice orders 1, 2, 5 and 13, saved with ``np.save``.

Prints one line per differing case and a summary; exits 1 if any case
differs, 0 if none does, and 2 if REF cannot be unpacked or the array
cases fail to run.  A differing ``.npy`` line gives the largest absolute
difference of its values, or says that its values keep their bits and
only the header or memory layout moved; a differing ``*-tree.txt`` or
``learn ... json`` line says whether the edge list (names and join order)
is unchanged and, if so, the largest absolute difference of its numbers.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HOUSING = ROOT / "data" / "housing.csv"
SPEC = ROOT / "data" / "synthetic_spec.json"
MEASURES = ("rho", "mi-cell")
PAIRS = ("rm,medv", "crim,tax", "chas,nox")
BAD_LEARN_FLAGS = (
    ("--tie-seed", "-1"), ("--lattice-order", "1"), ("--lattice-order", "20000"),
)
# each replaces one top-level key of SPEC
BAD_SPEC_FIELDS = {
    "samples 10.9": {"samples": 10.9},
    "seed -1": {"seed": -1},
    "rate true": {"margins": [{"family": "standard_normal"}] * 4
                  + [{"family": "exponential", "rate": True}]},
    "name with a comma": {"names": ["G,1", "G2", "G3", "Cn", "Ce"]},
}

ARRAYS = """
import sys
from pathlib import Path

import numpy as np

from coptree import (
    Dataset, RankMatrix, WeightMatrix, column_ranks, copula_cdf_grid, copula_mass_grid,
    coverage_ratio, learn_structure, maximum_spanning_tree, weight_matrix,
)

out = Path(sys.argv[1])
for t, n in ((4177, 9), (50000, 16), (40000, 40), (500, 300)):
    rng = np.random.default_rng(t + n)
    values = rng.standard_normal((t, n)) @ np.triu(rng.standard_normal((n, n)))
    values[:, ::2] = np.round(values[:, ::2])  # every other column tied
    tag = f"{t}x{n}"
    ranks = {"stable": column_ranks(values, "stable"), "random": column_ranks(values, "random", 0)}
    for mode, r in ranks.items():
        np.save(out / f"{tag}-ranks-{mode}.npy", r)
    table = Dataset(columns=tuple(f"c{j}" for j in range(n)), values=values)
    for measure in ("rho_abs", "mi_cell", "mi_kde"):
        w = weight_matrix(table, measure)
        np.save(out / f"{tag}-{measure}-values.npy", w.values)
        np.save(out / f"{tag}-{measure}-signed.npy", w.signed)
        edges = maximum_spanning_tree(w).edges
        (out / f"{tag}-{measure}-tree.txt").write_text("".join(
            f"{e.u} {e.v} {e.weight!r} {e.signed_value!r}\\n" for e in edges))
        (out / f"{tag}-{measure}-coverage.txt").write_text(
            repr(learn_structure(table, measure).coverage_ratio))
        if measure == "rho_abs":
            # every rho negated: the same weights |s|, so the same tree and coverage
            flipped = WeightMatrix(w.names, measure, w.lattice_order, -w.signed)
            tree = maximum_spanning_tree(flipped)
            (out / f"{tag}-{measure}-flipped-tree.txt").write_text("".join(
                f"{e.u} {e.v} {e.weight!r} {e.signed_value!r}\\n" for e in tree.edges))
            (out / f"{tag}-{measure}-flipped-coverage.txt").write_text(
                repr(coverage_ratio(tree, flipped)))
# the last table is the tied 500 x 300 one; its column 0 is tied, 1 is not
for mode, r in ranks.items():
    for dim in (1, 2, 3):
        for order in (1, 2, 5, 13):
            for kind, grid in (("cdf", copula_cdf_grid), ("mass", copula_mass_grid)):
                np.save(out / f"{tag}-{kind}-{mode}-{dim}d-K{order}.npy",
                        grid(RankMatrix(r[:, :dim]), order).values)
"""


def _run(src: Path, args, cwd: Path) -> bytes:
    """Exit code, stdout and stderr of one run (stderr is empty on success)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True
    )
    return b"exit %d\n" % done.returncode + done.stdout + done.stderr


def _learn(src: Path, work: Path, case: str, args) -> dict[str, bytes]:
    """stdout, --json and --dot bytes of one ``coptree learn`` run."""
    json_path, dot_path = work / "tree.json", work / "tree.dot"
    outputs = {f"{case} stdout": _run(src, [
        "-m", "coptree.cli", "learn", *args,
        "--json", str(json_path), "--dot", str(dot_path),
    ], work)}
    for label, path in (("json", json_path), ("dot", dot_path)):
        outputs[f"{case} {label}"] = path.read_bytes() if path.exists() else b""
        path.unlink(missing_ok=True)
    return outputs


def _learn_unwritable(src: Path, work: Path, json_path: str, dot_path: str) -> bytes:
    """Exit code, stdout and stderr of one ``coptree learn`` run with two
    destinations, one of them in a missing directory, and the names of the
    ``tree*`` files it leaves in ``work``.  The paths are relative to
    ``work``, so stderr is the same whichever tree runs."""
    run = _run(src, [
        "-m", "coptree.cli", "learn", "--input", str(HOUSING),
        "--json", json_path, "--dot", dot_path,
    ], work)
    left = sorted(p.name for p in work.iterdir() if p.name.startswith("tree"))
    for name in left:
        (work / name).unlink()
    return run + f"files left: {left}\n".encode()


def _synth(src: Path, work: Path, case: str, args) -> dict[str, bytes]:
    """stdout and output CSV bytes of one ``coptree synth`` run."""
    csv_path = work / "synth.csv"
    outputs = {f"{case} stdout": _run(src, [
        "-m", "coptree.cli", "synth", *args, "--output", str(csv_path),
    ], work)}
    outputs[f"{case} csv"] = csv_path.read_bytes() if csv_path.exists() else b""
    csv_path.unlink(missing_ok=True)
    return outputs


def _write_mixed_table(path: Path) -> None:
    """A dependent 1000 x 8 CSV: even columns untied, odd ones rounded."""
    rng = np.random.default_rng(8)
    values = rng.standard_normal((1000, 8)) @ np.triu(rng.standard_normal((8, 8)))
    values[:, 1::2] = np.round(values[:, 1::2])
    np.savetxt(path, values, fmt="%.17g", delimiter=",", comments="",
               header=",".join(f"m{j}" for j in range(8)))


def _write_quoted_header_table(path: Path) -> None:
    """A dependent 300 x 4 CSV whose first header name spans two lines."""
    rng = np.random.default_rng(4)
    values = rng.standard_normal((300, 4)) @ np.triu(rng.standard_normal((4, 4)))
    np.savetxt(path, values, fmt="%.17g", delimiter=",", comments="",
               header='"q0\nsecond line",q1,q2,q3')


def _write_leading_blank_table(path: Path) -> None:
    """A dependent 200 x 5 CSV with a blank and a whitespace-only line
    before its header."""
    rng = np.random.default_rng(5)
    values = rng.standard_normal((200, 5)) @ np.triu(rng.standard_normal((5, 5)))
    np.savetxt(path, values, fmt="%.17g", delimiter=",", comments="",
               header="\n \t\n" + ",".join(f"b{j}" for j in range(5)))


def collect(src: Path, work: Path) -> dict[str, bytes]:
    """Output bytes of every case, keyed by case name, for the package in src."""
    work.mkdir()
    outputs = {}
    for measure in MEASURES:
        for tie_seed in ("0", "1"):
            outputs.update(_learn(src, work, f"learn {measure} tie-seed {tie_seed}", [
                "--input", str(HOUSING), "--measure", measure, "--tie-seed", tie_seed,
            ]))
    mixed = work / "mixed.csv"
    _write_mixed_table(mixed)
    for measure in MEASURES:
        outputs.update(_learn(src, work, f"learn {measure} mixed table", [
            "--input", str(mixed), "--measure", measure,
        ]))
    quoted = work / "quoted.csv"
    _write_quoted_header_table(quoted)
    for measure in MEASURES:
        outputs.update(_learn(src, work, f"learn {measure} quoted header", [
            "--input", str(quoted), "--measure", measure,
        ]))
    leading = work / "leading-blank.csv"
    _write_leading_blank_table(leading)
    for measure in MEASURES:
        outputs.update(_learn(src, work, f"learn {measure} leading blank lines", [
            "--input", str(leading), "--measure", measure,
        ]))
    for pair in PAIRS:
        for measure in MEASURES:
            outputs[f"measure {pair} {measure} stdout"] = _run(src, [
                "-m", "coptree.cli", "measure", "--input", str(HOUSING),
                "--pair", pair, "--measure", measure,
            ], work)
            outputs[f"measure {pair} {measure} tie-seed 1 stdout"] = _run(src, [
                "-m", "coptree.cli", "measure", "--input", str(HOUSING),
                "--pair", pair, "--measure", measure, "--tie-seed", "1",
            ], work)
    outputs.update(_synth(src, work, "synth", ["--spec", str(SPEC)]))
    outputs.update(_synth(src, work, "synth --seed 7",
                          ["--spec", str(SPEC), "--seed", "7"]))
    for flags in BAD_LEARN_FLAGS:
        outputs[f"learn {' '.join(flags)} stdout"] = _run(src, [
            "-m", "coptree.cli", "learn", "--input", str(HOUSING), *flags,
        ], work)
    outputs["learn --dot in a missing directory"] = _learn_unwritable(
        src, work, "tree.json", "missing/tree.dot")
    outputs["learn --json in a missing directory"] = _learn_unwritable(
        src, work, "missing/tree.json", "tree.dot")
    for label, change in BAD_SPEC_FIELDS.items():
        spec = work / "bad-spec.json"
        spec.write_text(json.dumps({**json.loads(SPEC.read_text()), **change}))
        outputs.update(_synth(src, work, f"synth {label}", ["--spec", str(spec)]))
    arrays = work / "arrays"
    arrays.mkdir()
    outputs["arrays script"] = _run(src, ["-c", ARRAYS, str(arrays)], work)
    if not outputs["arrays script"].startswith(b"exit 0\n"):
        sys.stderr.write(f"the array cases failed under {src}\n")
        sys.exit(2)
    for path in sorted(arrays.iterdir()):
        outputs[path.name] = path.read_bytes()
    return outputs


def _tree(name: str, data: bytes):
    """Edge list (u, v) in join order and the numbers of a tree output."""
    if name.endswith("-tree.txt"):
        rows = [line.split() for line in data.decode().splitlines()]
        return [tuple(r[:2]) for r in rows], [float(x) for r in rows for x in r[2:]]
    tree = json.loads(data)
    edges = tree["edges"]
    numbers = [x for e in edges for x in (e["weight"], e["signed_value"])]
    return [(e["u"], e["v"]) for e in edges], numbers + [tree["coverage_ratio"]]


def change(name: str, ref: bytes | None, new: bytes | None) -> str:
    """How far a differing output moved, or "" for a kind not described."""
    if ref is None or new is None:
        return " (missing on one side)"
    try:
        if name.endswith(".npy"):
            a, b = np.load(io.BytesIO(ref)), np.load(io.BytesIO(new))
            if a.shape != b.shape or a.dtype != b.dtype:
                return " (shape or dtype changed)"
            if a.tobytes() == b.tobytes():  # both in C order
                return " (same values; .npy header or layout differs)"
            diff = np.abs(a.astype(float) - b.astype(float)).max(initial=0.0)
            return f" (max abs difference {diff:.2g})"
        if name.endswith("-tree.txt") or (name.startswith("learn ") and name.endswith(" json")):
            (ref_edges, ref_numbers), (new_edges, new_numbers) = _tree(name, ref), _tree(name, new)
            if ref_edges != new_edges:
                return " (edge list changed)"
            diff = max((abs(p - q) for p, q in zip(ref_numbers, new_numbers)), default=0.0)
            return f" (edge list unchanged, max abs difference {diff:.2g})"
    except (ValueError, KeyError, TypeError):
        return " (unreadable)"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git revision to compare against")
    args = parser.parse_args(argv)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", args.ref, "src"],
        cwd=ROOT, capture_output=True,
    )
    if archive.returncode != 0:
        sys.stderr.write(archive.stderr.decode(errors="replace"))
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "ref", filter="data")
        ref = collect(tmp / "ref" / "src", tmp / "ref-out")
        new = collect(ROOT / "src", tmp / "new-out")
    differ = sorted(name for name in ref.keys() | new.keys()
                    if ref.get(name) != new.get(name))
    for name in differ:
        print(f"DIFFERS: {name}{change(name, ref.get(name), new.get(name))}")
    print(f"{len(differ)} of {len(ref.keys() | new.keys())} outputs differ from {args.ref}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

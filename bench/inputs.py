"""The four workloads and the inputs they are run on.

Shapes are fixed per workload; ``--seed`` changes only the values (and, for
``cli-housing``, the rank tie-break seed).  Every generated table has
dependent columns (a random Gaussian tree) and a quarter of its columns
rounded to a few levels, so rank ties are always exercised.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cli": coptree learn processes; "csv": CSV file; "memory": Dataset
    measure: str
    rows: int
    cols: int


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-housing", "cli", "mi_cell", 506, 14),
        Workload("tall-csv", "csv", "mi_cell", 50000, 16),
        Workload("wide-rho", "memory", "rho_abs", 500, 300),
        Workload("kde-mid", "memory", "mi_kde", 4177, 9),
    )
}

HOUSING = Path("data") / "housing.csv"
MEASURE_FLAGS = {"rho_abs": "rho", "mi_cell": "mi-cell", "mi_kde": "mi-kde"}


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tie_seed(seed: int) -> int:
    return int(np.random.default_rng([seed, 1]).integers(0, 2**31 - 1))


def dependent_table(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Gaussian columns on a random tree; every fourth column rounded."""
    values = rng.standard_normal((rows, cols))
    for j in range(1, cols):
        parent = int(rng.integers(0, j))
        rho = rng.uniform(0.3, 0.9)
        values[:, j] = rho * values[:, parent] + np.sqrt(1.0 - rho * rho) * values[:, j]
    values[:, 3::4] = np.round(values[:, 3::4] * 2.0) / 2.0
    return values


def abalone_like(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Positive measurements plus a 3-level categorical first column and an
    integer count last column, like the UCI abalone table."""
    values = np.exp(0.3 * dependent_table(rng, rows, cols))
    values[:, 0] = np.digitize(values[:, 0], np.quantile(values[:, 0], [1 / 3, 2 / 3]))
    values[:, -1] = np.maximum(1.0, np.round(10.0 + 6.0 * np.log(values[:, -1])))
    return values


def write_csv(path: Path, columns, values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(columns) + "\n")
        for row in values.tolist():
            handle.write(",".join(map(repr, row)) + "\n")


def make_inputs(workload: Workload, seed: int, root: Path, workdir: Path) -> dict:
    """Write the workload's input under ``workdir``.

    Returns the worker spec fields plus ``values`` (the exact table the
    operations see) and ``provenance``.
    """
    rows, cols = workload.rows, workload.cols
    if workload.kind == "cli":
        path = root / HOUSING
        with open(path, encoding="utf-8") as handle:
            columns = handle.readline().strip().split(",")
        values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        spec = {"input": str(HOUSING), "tie_seed": tie_seed(seed),
                "measure_flag": MEASURE_FLAGS[workload.measure]}
    else:
        rng = np.random.default_rng(seed)
        columns = [f"c{j:03d}" for j in range(cols)]
        if workload.name == "kde-mid":
            values = abalone_like(rng, rows, cols)
        else:
            values = dependent_table(rng, rows, cols)
        if workload.kind == "csv":
            path = workdir / "input.csv"
            write_csv(path, columns, values)
        else:
            path = workdir / "input.npy"
            np.save(path, values)
        spec = {"input": str(path), "tie_seed": 0}
    spec.update(kind=workload.kind, measure=workload.measure, columns=columns)
    provenance = {
        "input": {"path": str(path.relative_to(root)), "bytes": path.stat().st_size,
                  "sha256": sha256(path)},
        "T": int(values.shape[0]),
        "N": int(values.shape[1]),
        "measure": workload.measure,
        "tie_seed": spec["tie_seed"],
    }
    return {"spec": spec, "values": values, "provenance": provenance}

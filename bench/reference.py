"""Reference dependence trees, built with the benchmark's own literal code.

Only the ranks come from the package (``coptree.column_ranks``), and they
are checked here first: each column must be a permutation of 1..T that
agrees with the order of the values.  Everything after the ranks is
recomputed independently:

* rho from the textbook form 1 - 6 sum d^2 / (T (T^2 - 1)), ordered by the
  exact integer |T (T^2 - 1) - 6 sum d^2|;
* ``mi_cell`` as the plug-in mutual information of the K x K cell counts,
  cells ceil(r K / T) in integer arithmetic, margins from the table;
* ``mi_kde`` as mean_t ln c_t with c_t the sample's cell density: the
  kernel densities cancel exactly in the package's weighted estimator;
* the tree by Kruskal under the package's strict edge order (heavier
  first, then the lexicographically smallest index pair), which has a
  unique maximum spanning tree, so it must equal the package's Prim tree.

``test_smoke.py`` checks the rho and cell counts used here against the
literal oracles of the package's test suite.
"""
from __future__ import annotations

import json
import math

import numpy as np

TOLERANCE = 1e-12


def default_lattice_order(rows: int) -> int:
    return max(2, math.isqrt(rows // 20))


def rank_problems(values: np.ndarray, ranks: np.ndarray) -> list[str]:
    rows, cols = values.shape
    if ranks.shape != values.shape:
        return [f"ranks have shape {ranks.shape}, values {values.shape}"]
    expected = np.arange(1, rows + 1)
    problems = []
    for j in range(cols):
        if not np.array_equal(np.sort(ranks[:, j]), expected):
            problems.append(f"column {j}: ranks are not a permutation of 1..{rows}")
        elif np.any(np.diff(values[np.argsort(ranks[:, j]), j]) < 0):
            problems.append(f"column {j}: ranks disagree with the value order")
    return problems


def rho_pairs(ranks: np.ndarray):
    """{(i, j): (order key, |rho|, rho)} for every column pair i < j."""
    rows, cols = ranks.shape
    r = ranks.astype(np.int64)
    gram = r.T @ r
    square_sum = rows * (rows + 1) * (2 * rows + 1) // 6
    denom = rows * (rows * rows - 1)
    out = {}
    for i in range(cols):
        for j in range(i + 1, cols):
            d2 = 2 * square_sum - 2 * int(gram[i, j])
            rho = 1.0 - 6.0 * d2 / denom
            out[i, j] = (abs(denom - 6 * d2), abs(rho), rho)
    return out


def cell_counts(rank_x: np.ndarray, rank_y: np.ndarray, order: int) -> np.ndarray:
    """K x K counts of samples per cell, cell ceil(r K / T) per coordinate."""
    rows = rank_x.shape[0]
    cx = (rank_x.astype(np.int64) * order + rows - 1) // rows - 1
    cy = (rank_y.astype(np.int64) * order + rows - 1) // rows - 1
    return np.bincount(cx * order + cy, minlength=order * order).reshape(order, order)


def mi_pairs(ranks: np.ndarray, order: int, measure: str):
    """{(i, j): (order key, weight, signed value)} for the MI measures."""
    rows, cols = ranks.shape
    out = {}
    for i in range(cols):
        for j in range(i + 1, cols):
            counts = cell_counts(ranks[:, i], ranks[:, j], order)
            row_sums = counts.sum(axis=1).tolist()
            col_sums = counts.sum(axis=0).tolist()
            terms = []
            for a, line in enumerate(counts.tolist()):
                for b, n in enumerate(line):
                    if n == 0:
                        continue
                    if measure == "mi_cell":
                        ratio = n * rows / (row_sums[a] * col_sums[b])
                    else:
                        ratio = n * order * order / rows
                    terms.append(n / rows * math.log(ratio))
            value = math.fsum(terms)
            out[i, j] = (value, value, value)
    return out


def reference_tree(columns, values: np.ndarray, ranks: np.ndarray, measure: str) -> dict:
    """The tree the package must produce, or ``{"problems": [...]}``."""
    problems = rank_problems(values, ranks)
    if problems:
        return {"problems": problems}
    rows, cols = ranks.shape
    order = default_lattice_order(rows)
    pairs = rho_pairs(ranks) if measure == "rho_abs" else mi_pairs(ranks, order, measure)
    parent = list(range(cols))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edges = {}
    for i, j in sorted(pairs, key=lambda ij: (-pairs[ij][0], ij[0], ij[1])):
        root_i, root_j = find(i), find(j)
        if root_i != root_j:
            parent[root_i] = root_j
            edges[i, j] = pairs[i, j][1:]
            if len(edges) == cols - 1:
                break
    total = math.fsum(weight for _, weight, _ in pairs.values())
    coverage = math.fsum(weight for weight, _ in edges.values()) / total
    return {"nodes": list(columns), "edges": edges, "measure": measure,
            "lattice_order": order, "coverage_ratio": coverage, "problems": []}


def output_problems(reference: dict, text: str) -> list[str]:
    """Differences between a serialized tree and the reference tree."""
    if reference["problems"]:
        return list(reference["problems"])
    try:
        tree = json.loads(text)
    except (TypeError, ValueError) as error:
        return [f"output is not JSON: {error}"]
    problems = []
    for key in ("nodes", "measure", "lattice_order"):
        if tree.get(key) != reference[key]:
            problems.append(f"{key} is {tree.get(key)!r}, expected {reference[key]!r}")
    if problems:
        return problems
    index = {name: k for k, name in enumerate(reference["nodes"])}
    seen = {}
    for edge in tree["edges"]:
        if edge["u"] not in index or edge["v"] not in index:
            return [f"edge ({edge['u']}, {edge['v']}) names an unknown node"]
        a, b = sorted((index[edge["u"]], index[edge["v"]]))
        seen[a, b] = (edge["weight"], edge["signed_value"])
    expected = reference["edges"]
    if seen.keys() != expected.keys() or len(tree["edges"]) != len(expected):
        missing = sorted(expected.keys() - seen.keys())
        extra = sorted(seen.keys() - expected.keys())
        problems.append(f"edges differ: missing {missing}, unexpected {extra}")
        return problems
    for pair, (weight, signed) in seen.items():
        ref_weight, ref_signed = expected[pair]
        if abs(weight - ref_weight) > TOLERANCE or abs(signed - ref_signed) > TOLERANCE:
            problems.append(f"edge {pair}: ({weight!r}, {signed!r}) expected "
                            f"({ref_weight!r}, {ref_signed!r})")
    coverage = tree.get("coverage_ratio")
    if coverage is None or abs(coverage - reference["coverage_ratio"]) > TOLERANCE:
        problems.append(f"coverage_ratio {coverage!r}, expected {reference['coverage_ratio']!r}")
    return problems

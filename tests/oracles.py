"""Independent reference implementations used as test oracles.

Everything here is deliberately literal and slow: exact rational
arithmetic, explicit loops over samples and lattice points, and exhaustive
tree enumeration.  The package must agree with these, not the other way
around.
"""
import heapq
import itertools
import math
from fractions import Fraction

import numpy as np


def literal_cdf_counts(ranks: np.ndarray, order: int) -> np.ndarray:
    """Integer CDF counts on the (K+1)^N lattice by direct counting.

    Lattice point (t_1, ..., t_N) counts samples with
    r_n <= floor(t_n * T / K) in every coordinate; thresholds use exact
    rationals.
    """
    t, n = ranks.shape
    out = np.zeros((order + 1,) * n, dtype=np.int64)
    for idx in itertools.product(range(order + 1), repeat=n):
        thresholds = [math.floor(Fraction(i * t, order)) for i in idx]
        hits = 0
        for row in range(t):
            if all(ranks[row, j] <= thresholds[j] for j in range(n)):
                hits += 1
        out[idx] = hits
    return out


def difference_masses(cdf_counts: np.ndarray) -> np.ndarray:
    """Cell masses (as integer counts) from alternating corner sums of the
    CDF grid: the N-dimensional inclusion-exclusion difference."""
    n = cdf_counts.ndim
    order = cdf_counts.shape[0] - 1
    out = np.zeros((order,) * n, dtype=np.int64)
    for cell in itertools.product(range(1, order + 1), repeat=n):
        total = 0
        for corner in itertools.product((0, 1), repeat=n):
            sign = (-1) ** (n - sum(corner))
            pos = tuple(c - 1 + b for c, b in zip(cell, corner))
            total += sign * cdf_counts[pos]
        out[tuple(c - 1 for c in cell)] = total
    return out


def direct_bin_counts(ranks: np.ndarray, order: int) -> np.ndarray:
    """Integer cell counts by dropping each sample into its half-open
    cell, ceil(r * K / T) per coordinate, with exact rationals."""
    t, n = ranks.shape
    out = np.zeros((order,) * n, dtype=np.int64)
    for row in range(t):
        cell = tuple(
            math.ceil(Fraction(int(ranks[row, j]) * order, t)) - 1 for j in range(n)
        )
        out[cell] += 1
    return out


def uniform_margin_mi(ranks: np.ndarray, order: int) -> float:
    """Lattice MI against nominal 1/K margins: the mean over samples of
    ln(count of the sample's cell * K^2 / T), cells as in
    ``direct_bin_counts``."""
    t = ranks.shape[0]
    counts = direct_bin_counts(ranks, order)
    total = 0.0
    for row in range(t):
        cell = tuple(math.ceil(Fraction(int(r) * order, t)) - 1 for r in ranks[row])
        total += math.log(counts[cell] * order * order / t)
    return total / t


def observed_margin_mi(ranks: np.ndarray, order: int) -> float:
    """Plug-in MI of a T x 2 rank array against its observed margins: the
    sum over occupied cells of m_ij ln(m_ij / (m_i. m_.j)), term by term,
    with the cell counts of ``direct_bin_counts``."""
    t = ranks.shape[0]
    counts = direct_bin_counts(ranks, order)
    rows, cols = counts.sum(axis=1), counts.sum(axis=0)
    total = 0.0
    for a in range(order):
        for b in range(order):
            c = int(counts[a, b])
            if c:
                total += c / t * math.log(c * t / (int(rows[a]) * int(cols[b])))
    return total


def naive_spearman(rank_x, rank_y) -> float:
    """The O(T^2) lattice double sum: (12/(T^2-1)) * sum over all lattice
    points of (C_hat(t1/T, t2/T) - t1*t2/T^2)."""
    rank_x = np.asarray(rank_x)
    rank_y = np.asarray(rank_y)
    t = rank_x.shape[0]
    scatter = np.zeros((t + 1, t + 1), dtype=np.int64)
    for rx, ry in zip(rank_x, rank_y):
        scatter[rx, ry] += 1
    counts = scatter.cumsum(axis=0).cumsum(axis=1)
    total = 0.0
    for t1 in range(1, t + 1):
        for t2 in range(1, t + 1):
            total += counts[t1, t2] / t - (t1 * t2) / (t * t)
    return total * 12.0 / (t * t - 1.0)


def prufer_decode(sequence, n: int):
    """Edges of the labelled tree encoded by a Prufer sequence."""
    degree = [1] * n
    for x in sequence:
        degree[x] += 1
    heap = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(heap)
    edges = []
    for x in sequence:
        leaf = heapq.heappop(heap)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(heap, x)
    u = heapq.heappop(heap)
    v = heapq.heappop(heap)
    edges.append((min(u, v), max(u, v)))
    return tuple(edges)


def all_spanning_trees(n: int):
    """Every spanning tree of the complete graph on n nodes (n^(n-2))."""
    for sequence in itertools.product(range(n), repeat=n - 2):
        yield prufer_decode(sequence, n)


def best_tree_weight(weights: np.ndarray) -> float:
    """Maximum total weight over all spanning trees, by enumeration."""
    return max(
        sum(weights[a, b] for a, b in tree)
        for tree in all_spanning_trees(weights.shape[0])
    )


def _edge_key(weights: np.ndarray, i: int, j: int):
    # Total order: heavier first, then lexicographically smallest sorted
    # index pair.  max() over these keys picks that edge.
    a, b = (i, j) if i < j else (j, i)
    return (weights[i, j], -a, -b)


def literal_prim(values: np.ndarray) -> list:
    """Edges (min index, max index) of the maximum spanning tree, in the
    order they join it: Prim grown from the heaviest edge, one vertex at a
    time, every comparison on the key (weight, -min index, -max index)."""
    n = values.shape[0]
    best = max(
        ((i, j) for i in range(n) for j in range(i + 1, n)),
        key=lambda ij: _edge_key(values, *ij),
    )
    i0, j0 = best
    in_tree = np.zeros(n, dtype=bool)
    in_tree[i0] = in_tree[j0] = True
    edges = [(i0, j0)]
    # best in-tree partner of each out-of-tree vertex
    partner = np.empty(n, dtype=np.int64)
    for v in range(n):
        if not in_tree[v]:
            partner[v] = max((i0, j0), key=lambda u: _edge_key(values, u, v))
    while len(edges) < n - 1:
        v_next = max(
            (v for v in range(n) if not in_tree[v]),
            key=lambda v: _edge_key(values, partner[v], v),
        )
        u_next = partner[v_next]
        in_tree[v_next] = True
        edges.append((min(u_next, v_next), max(u_next, v_next)))
        for v in range(n):
            if not in_tree[v]:
                if _edge_key(values, v_next, v) > _edge_key(values, partner[v], v):
                    partner[v] = v_next
    return [(int(a), int(b)) for a, b in edges]


def literal_column_ranks(
    values: np.ndarray, tie_break: str = "stable", tie_seed: int = 0
) -> np.ndarray:
    """Rank each column of a T x N array; rank 1 = smallest value.

    Parameters
    ----------
    values : ndarray, shape (T, N)
    tie_break : {"stable", "random"}
        "stable" breaks ties by ascending row index.  "random" breaks ties
        in a seeded random order drawn independently per column, which
        removes the spurious cross-column dependence that shared row
        ordering induces between heavily tied columns.  Columns without
        ties get identical ranks under both modes and draw nothing.
    tie_seed : int
        Seed for the "random" mode, >= 0; ignored for "stable".

    Returns
    -------
    ndarray of int64, shape (T, N)
        Each column is a permutation of 1..T.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"values must be 2-D, got shape {values.shape}")
    if tie_break not in ("stable", "random"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    if tie_break == "random" and tie_seed < 0:
        raise ValueError(f"tie_seed must be >= 0, got {tie_seed}")
    t, n = values.shape
    ranks = np.empty((t, n), dtype=np.int64)
    positions = np.arange(1, t + 1, dtype=np.int64)
    drawn = 0  # tied columns seen so far
    for j in range(n):
        # np.unique counts NaNs as one value and -0.0 as 0.0
        if tie_break == "random" and np.unique(values[:, j]).size < t:
            # Shuffle rows first so equal values end up in random order;
            # distinct values are unaffected by the reshuffle.
            perm = literal_tie_order(tie_seed, drawn, t)
            drawn += 1
            order = perm[np.argsort(values[perm, j], kind="stable")]
        else:
            order = np.argsort(values[:, j], kind="stable")
        ranks[order, j] = positions
    return ranks


def splitmix64(counter: int) -> int:
    """The SplitMix64 output mix of a 64-bit counter, in Python integers."""
    z = counter % 2**64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


def literal_tie_order(tie_seed: int, ordinal: int, t: int) -> np.ndarray:
    """The random tie order of the tied column with this ordinal: its rows
    sorted by their keys, the SplitMix64 mix of seed + (ordinal*t + r + 1)
    times the golden-ratio step, each with its low bits replaced by r."""
    low = (1 << max(1, (t - 1).bit_length())) - 1
    keys = [
        (splitmix64(tie_seed + (ordinal * t + r + 1) * 0x9E3779B97F4A7C15) & ~low) | r
        for r in range(t)
    ]
    return np.array(sorted(range(t), key=keys.__getitem__), dtype=np.int64)


def gaussian_spearman(theta: float) -> float:
    """Closed-form Spearman's rho of a bivariate Gaussian copula."""
    return (6.0 / math.pi) * math.asin(theta / 2.0)


def connected(edge_pairs, subset) -> bool:
    """Whether the tree edges restricted to ``subset`` connect it."""
    subset = set(subset)
    adjacency = {v: set() for v in subset}
    for a, b in edge_pairs:
        if a in subset and b in subset:
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen = set()
    stack = [next(iter(subset))]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(adjacency[v] - seen)
    return seen == subset


def assert_valid_grids(cdf, mass) -> None:
    """Check the lattice-grid axioms: grounded, unit corner, coordinatewise
    monotone CDF; nonnegative cells summing to 1."""
    values = cdf.values
    n = values.ndim
    for axis in range(n):
        face = [slice(None)] * n
        face[axis] = 0
        assert np.all(values[tuple(face)] == 0.0), "cdf not grounded"
        assert np.all(np.diff(values, axis=axis) >= 0.0), "cdf not monotone"
    assert values[(-1,) * n] == 1.0, "cdf corner is not 1"
    assert np.all(mass.values >= 0.0), "negative cell mass"
    assert abs(mass.values.sum() - 1.0) <= 1e-12, "cell masses do not sum to 1"


def difference_binning_cases(
    package_mass_grid,
    rank_matrix_cls,
    dims,
    max_samples: int,
    rng,
    random_per_config: int,
    exhaustive_max_t: int = 0,
) -> int:
    """Cross-check CDF differencing against direct binning and against the
    package mass grid.  Exhausts all second-column permutations for
    bivariate cases up to ``exhaustive_max_t`` samples; uses seeded random
    rank matrices elsewhere.  Returns the number of cases checked."""
    checked = 0
    for n in dims:
        for t in range(2, max_samples + 1):
            configs = []
            if n == 2 and t <= exhaustive_max_t:
                first = np.arange(1, t + 1)
                for perm in itertools.permutations(range(1, t + 1)):
                    configs.append(np.column_stack([first, np.array(perm)]))
            else:
                for _ in range(random_per_config):
                    cols = [rng.permutation(t) + 1 for _ in range(n)]
                    configs.append(np.column_stack(cols))
            for ranks in configs:
                for order in range(1, t + 1):
                    by_difference = difference_masses(literal_cdf_counts(ranks, order))
                    by_binning = direct_bin_counts(ranks, order)
                    assert np.array_equal(by_difference, by_binning)
                    grid = package_mass_grid(rank_matrix_cls(ranks), order)
                    scaled = grid.values * t
                    assert np.allclose(scaled, by_binning, atol=1e-9)
                    assert np.array_equal(
                        np.rint(scaled).astype(np.int64), by_binning
                    )
                    checked += 1
    return checked

"""Lattice estimators of the copula CDF and copula cell masses.

The empirical copula of T ranked samples is evaluated on a regular lattice
of order K: the CDF value at lattice point (t_1/K, ..., t_N/K) is the
fraction of samples whose ranks satisfy r_n <= floor(t_n * T / K) in every
coordinate, and the cell mass of cell (t_1, ..., t_N) is the fraction of
samples landing in the half-open box, i.e. with ceil(r_n * K / T) = t_n
for all n.  The mass grid equals the N-dimensional inclusion-exclusion
difference of the CDF grid over each unit cell; it is produced here by a
single binning pass in O(T*N + K^N).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import RankMatrix, _integer

__all__ = [
    "CopulaGrid",
    "default_lattice_order",
    "empirical_copula",
    "copula_cdf_grid",
    "copula_mass_grid",
]

_MAX_CELLS = 10**8
# floor(u*T) must not miss an integer that u*T only reaches up to rounding,
# e.g. (t/K)*T an ulp below t*T/K; lattice spacing is >= 1/T >> this slack.
_FLOOR_SLACK = 1e-9


def default_lattice_order(sample_count: int) -> int:
    """Default grid resolution: about 20 samples per bivariate cell.

    K = max(2, isqrt(T // 20)) keeps the plug-in mutual-information bias,
    roughly (K-1)^2 / (2T) nats at independence, near 1/40 nat.  A finer
    grid (e.g. K = sqrt(T)) leaves ~1 sample per 2-D cell and the bias
    dwarfs most true dependence signals.
    """
    return max(2, math.isqrt(_integer(sample_count, "sample_count", 2) // 20))


@dataclass(frozen=True)
class CopulaGrid:
    """Values of the empirical copula ("cdf") or its cell masses ("mass").

    CDF grids have shape (K+1,)*N indexed from 0 (so any index at 0 holds
    0 and the top corner holds 1); mass grids have shape (K,)*N with cell
    t stored at index t-1.
    """

    order: int
    dim: int
    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in ("cdf", "mass"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        side = self.order + 1 if self.kind == "cdf" else self.order
        if self.values.shape != (side,) * self.dim:
            raise ValueError(
                f"{self.kind} grid of order {self.order} and dim {self.dim} "
                f"must have shape {(side,) * self.dim}, got {self.values.shape}"
            )


def _check_lattice(order, dim: int, lowest: int, sample_count: int) -> int:
    """``order`` as an int, once it is checked to be an integer in
    [lowest, sample_count] whose lattice in dimension ``dim`` has at most
    ``_MAX_CELLS`` cells."""
    order = _integer(order, "lattice order", lowest, sample_count)
    if order**dim > _MAX_CELLS:
        raise ValueError(
            f"lattice order {order} in dimension {dim} needs {order**dim} cells, "
            f"more than {_MAX_CELLS}"
        )
    return order


def _cell_indices(ranks: np.ndarray, order: int) -> np.ndarray:
    """0-based order-K cell index ceil(r*K/T) - 1 of every entry of a T x N
    rank array, in exact integer arithmetic."""
    return -((-ranks * order) // ranks.shape[0]) - 1


def _cell_counts(ranks: np.ndarray, order: int) -> np.ndarray:
    """Integer sample counts of the order-K lattice cells, shape (K,)*N.

    ``ranks`` is a T x N array whose columns are permutations of 1..T.
    """
    n = ranks.shape[1]
    cells = _cell_indices(ranks, order)
    flat = np.ravel_multi_index(tuple(cells.T), (order,) * n)
    return np.bincount(flat, minlength=order**n).reshape((order,) * n)


def empirical_copula(ranks: RankMatrix, u) -> float:
    """Evaluate the empirical copula at a point of the unit hypercube.

    Returns the fraction of samples whose rank vector is coordinatewise
    <= floor(u_n * T).  Touches each sample once: O(T*N).

    Parameters
    ----------
    ranks : RankMatrix
    u : array-like of length N with entries in [0, 1]

    Raises
    ------
    ValueError
        If u has the wrong length or leaves the unit hypercube.
    """
    u = np.asarray(u, dtype=float)
    t, n = ranks.sample_count, ranks.dim
    if u.shape != (n,):
        raise ValueError(f"point must have length {n}, got shape {u.shape}")
    if not np.all((u >= 0.0) & (u <= 1.0)):  # NaN fails both comparisons
        raise ValueError("point must lie in the unit hypercube")
    thresholds = np.floor(u * t + _FLOOR_SLACK).astype(np.int64)
    inside = np.all(ranks.ranks <= thresholds[np.newaxis, :], axis=1)
    return float(np.count_nonzero(inside)) / t


def copula_cdf_grid(ranks: RankMatrix, order: int) -> CopulaGrid:
    """Empirical copula CDF on the full order-K lattice.

    Grid value at multi-index (t_1, ..., t_N) equals
    ``empirical_copula(ranks, (t_1/K, ..., t_N/K))``.  Built by one
    bin-and-accumulate pass over the samples, not by K^N evaluations.
    """
    t, n = ranks.sample_count, ranks.dim
    order = _check_lattice(order, n, 1, t)
    # a leading zero per axis grounds the grid before the running sums
    counts = np.pad(_cell_counts(ranks.ranks, order), [(1, 0)] * n)
    for axis in range(n):
        np.cumsum(counts, axis=axis, out=counts)
    return CopulaGrid(order=order, dim=n, kind="cdf", values=counts / t)


def copula_mass_grid(ranks: RankMatrix, order: int) -> CopulaGrid:
    """Copula cell masses on the order-K lattice.

    Cell (t_1, ..., t_N) holds the fraction of samples with
    ceil(r_n * K / T) = t_n for every coordinate, which equals the
    N-dimensional difference of the CDF grid over that cell.  All cells
    are nonnegative and sum to 1.
    """
    t, n = ranks.sample_count, ranks.dim
    order = _check_lattice(order, n, 1, t)
    counts = _cell_counts(ranks.ranks, order)
    return CopulaGrid(order=order, dim=n, kind="mass", values=counts / t)

"""Lattice estimators of the copula CDF and copula cell masses.

The empirical copula of T ranked samples is evaluated on a regular lattice
of order K: the CDF value at lattice point (t_1/K, ..., t_N/K) is the
fraction of samples whose ranks satisfy r_n <= floor(t_n * T / K) in every
coordinate, and the cell mass of cell (t_1, ..., t_N) is the fraction of
samples landing in the half-open box, i.e. with ceil(r_n * K / T) = t_n
for all n.  The mass grid equals the N-dimensional inclusion-exclusion
difference of the CDF grid over each unit cell; it is produced here by a
single binning pass in O(T*N + K^N).

This module owns every lattice rule of the package: the lattice order
(:func:`_check_lattice`, and :func:`_lattice_order` for the pair
measures), the cell of a rank (:func:`_cell_indices`), the fixed margins
m_c that every rank column puts in each cell (:func:`_margins`), and the
one cell-count kernel, :func:`_joint_counts`, through which both the
copula grids here and the MI weights of :mod:`coptree.measures` count.
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


@dataclass(frozen=True, eq=False)
class CopulaGrid:
    """Values of the empirical copula ("cdf") or its cell masses ("mass").

    CDF grids have shape (K+1,)*N indexed from 0 (so any index at 0 holds
    0 and the top corner holds 1); mass grids have shape (K,)*N with cell
    t stored at index t-1.  ``order`` and ``dim`` are integers >= 1 and
    ``values`` is stored as a float array.
    """

    order: int
    dim: int
    kind: str
    values: np.ndarray

    def __post_init__(self):
        order = _integer(self.order, "grid order", 1)
        dim = _integer(self.dim, "grid dim", 1)
        if self.kind not in ("cdf", "mass"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        values = np.asarray(self.values, dtype=float)
        side = order + 1 if self.kind == "cdf" else order
        if values.shape != (side,) * dim:
            raise ValueError(
                f"{self.kind} grid of order {order} and dim {dim} "
                f"must have shape {(side,) * dim}, got {values.shape}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "values", values)


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


def _lattice_order(order, t: int) -> int:
    """The lattice order K that a pair measure's ``order`` asks for at T
    samples: 0 picks ``default_lattice_order(T)``; anything else is a pair
    lattice order, checked by :func:`_check_lattice` to lie in [2, T]."""
    order = _integer(order, "lattice order", 0)
    return _check_lattice(order, 2, 2, t) if order else default_lattice_order(t)


def _cell_indices(ranks: np.ndarray, order: int) -> np.ndarray:
    """0-based order-K cell index ceil(r*K/T) - 1 of every entry of a T x N
    rank array, in exact integer arithmetic."""
    return -((-ranks * order) // ranks.shape[0]) - 1


def _margins(t: int, order: int) -> np.ndarray:
    """The sample count m_c = floor((c+1)T/K) - floor(cT/K) of lattice
    cell c, the same in every rank column of length T."""
    return np.diff(np.arange(order + 1) * t // order)


def _joint_counts(flat: np.ndarray, size: int) -> np.ndarray:
    """How often each value in [0, size) occurs in each row of a G x T
    integer array, shape (G, size).

    Row g is shifted by g * size so that the G count vectors lie side by
    side in one ``np.bincount``.  The shift is added to ``flat`` in place,
    so pass a temporary.
    """
    flat += size * np.arange(len(flat))[:, np.newaxis]
    return np.bincount(flat.ravel(), minlength=len(flat) * size).reshape(-1, size)


def _cell_counts(ranks: RankMatrix, order) -> tuple[int, np.ndarray]:
    """The checked lattice order K and the integer sample counts of the
    order-K lattice cells, shape (K,)*N."""
    order = _check_lattice(order, ranks.dim, 1, ranks.sample_count)
    shape = (order,) * ranks.dim
    flat = np.ravel_multi_index(tuple(_cell_indices(ranks.ranks, order).T), shape)
    return order, _joint_counts(flat[np.newaxis], order**ranks.dim).reshape(shape)


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
    order, counts = _cell_counts(ranks, order)
    # a leading zero per axis grounds the grid before the running sums
    counts = np.pad(counts, [(1, 0)] * n)
    for axis in range(n):
        np.cumsum(counts, axis=axis, out=counts)
    return CopulaGrid(order, n, "cdf", counts / t)


def copula_mass_grid(ranks: RankMatrix, order: int) -> CopulaGrid:
    """Copula cell masses on the order-K lattice.

    Cell (t_1, ..., t_N) holds the fraction of samples with
    ceil(r_n * K / T) = t_n for every coordinate, which equals the
    N-dimensional difference of the CDF grid over that cell.  All cells
    are nonnegative and sum to 1.
    """
    order, counts = _cell_counts(ranks, order)
    return CopulaGrid(order, ranks.dim, "mass", counts / ranks.sample_count)

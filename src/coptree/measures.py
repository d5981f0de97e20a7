"""Pairwise dependence measures computed from ranks.

Spearman's rho is evaluated through the empirical copula lattice at order
T; the double sum over the lattice telescopes to an O(T) expression in the
rank products, so no grid is materialized.  Mutual information ("mi_cell")
is the plug-in KL divergence of the order-K lattice cell masses from the
product of their margins.  Every rank column puts the same m_c samples in
lattice cell c, fixed by (T, K), so those margins are one vector.
"mi_kde" is the mean log copula-cell density at the samples, an estimate
of copula entropy (Ma & Sun, 2008), which is "mi_cell" plus the (T, K)
constant 2 * sum_c (m_c/T) ln(K m_c/T), twice the KL divergence of the
margins from uniform; it is scored that way.  Adding one constant to
every pair leaves the spanning tree as it is, so "mi_kde" always spans
the "mi_cell" tree.  It has no single-pair function and no CLI choice,
and stays a :func:`weight_matrix` measure only until the benchmark's
``kde-mid`` workload, which runs it, is replaced (ROADMAP item 1).
All three depend on ranks only.
:func:`_scores` is the one map from a measure name to its kernel, and
every entry point scores through it: :func:`weight_matrix` on the whole
rank matrix, the single-pair functions on their two checked rank columns,
and ``coptree measure`` on two columns of the ranks ``learn`` uses.
rho_abs comes from one BLAS product R^T R of the float64 rank matrix
(while every partial sum is an integer of at most 2^53, so it is exact
and the same for any BLAS kernel or thread count; an int64 product
beyond), the MI measures from one cell-counting pass per column and one
array expression over each block of integer cell counts.  Each cell's
ratio to its margins is one division of two integer products, exact in
float64 while T^2 <= 2^53, so an exactly independent grid scores exactly
0.  A pair's score does not depend on the other columns scored with it.
:class:`KernelDensity` is a standalone utility; no estimator uses it.

The lattice rules live in :mod:`coptree.empirical`: this module takes
the lattice order (``_lattice_order``), the cell rule (``_cell_indices``),
the margins (``_margins``) and the cell counts (``_joint_counts``, the
kernel that also counts the copula grids) from there, and only scores
the counts it is given.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, _check_permutations, _integer, _unique_names, column_ranks
from .empirical import _cell_indices, _joint_counts, _lattice_order, _margins

__all__ = [
    "MEASURES",
    "WeightMatrix",
    "KernelDensity",
    "spearman_rho",
    "mutual_info_cell",
    "weight_matrix",
]

MEASURES = ("rho_abs", "mi_cell", "mi_kde")

# Elements per counting block of _mi_weights: bounds both the
# (columns x T) cell-index block and its (columns x K^2) count vector.
_MAX_BLOCK_CELLS = 2**20

# Largest T at which sum_t t^2, the largest sum of rank products, is at
# most 2^53, so a float64 sum of rank products is exact.
_MAX_FLOAT_EXACT_RHO_T = 300_079

# Largest T at which sum_t t^2 fits in int64; _rho_matrix sums in float64
# beyond it.
_MAX_EXACT_RHO_T = 3_024_616


def _rank_pair(rank_x, rank_y) -> np.ndarray:
    """Two rank columns as a checked T x 2 int64 array."""
    pair = [np.asarray(rank_x), np.asarray(rank_y)]
    for name, r in zip(("rank_x", "rank_y"), pair):
        if r.ndim != 1:
            raise ValueError(f"{name} must be 1-D")
        if r.shape[0] < 2:
            raise ValueError(f"{name} needs at least 2 entries, got {r.shape[0]}")
    if pair[0].shape != pair[1].shape:
        raise ValueError(f"length mismatch: {pair[0].shape[0]} vs {pair[1].shape[0]}")
    return _check_permutations(np.column_stack(pair), ("rank_x", "rank_y"))


def _rho_matrix(ranks: np.ndarray) -> np.ndarray:
    """Signed rho of every column pair of a T x N rank array, zero diagonal.

    Up to ``_MAX_EXACT_RHO_T`` each sum_t r_i[t] * r_j[t] is exact, so it
    does not depend on the row order.  Up to ``_MAX_FLOAT_EXACT_RHO_T``
    every product and partial sum is an integer of at most 2^53, so one
    float64 BLAS product R^T R (a symmetric rank-k update) gives the same
    bits whatever its blocking, FMA use or thread split; above that the
    sums are an int64 einsum.  Beyond ``_MAX_EXACT_RHO_T`` they are a
    float64 sum.
    """
    t = ranks.shape[0]
    if t <= _MAX_FLOAT_EXACT_RHO_T:
        ranks = ranks.astype(np.float64)
        rho = ranks.T @ ranks
    else:
        dtype = np.int64 if t <= _MAX_EXACT_RHO_T else np.float64
        rho = np.einsum("ti,tj->ij", ranks, ranks, dtype=dtype)
        rho = rho.astype(float, copy=False)
    rho -= t * (t + 1.0) ** 2 / 4.0
    rho *= 12.0
    rho /= t * (t * t - 1.0)
    np.fill_diagonal(rho, 0.0)
    return rho


def spearman_rho(rank_x, rank_y) -> float:
    """Spearman's rho of two rank columns, in [-1, 1].

    Equals (12 / (T^2 - 1)) * sum over the order-T lattice of
    (C_hat(t1/T, t2/T) - t1*t2/T^2); the lattice sum collapses to
    sum_t r_x[t] * r_y[t] because each copula value counts rank pairs
    below a lattice point, so the evaluation is O(T) after ranking.
    """
    return _pair_score(rank_x, rank_y, "rho_abs")


def mutual_info_cell(rank_x, rank_y, lattice_order: int) -> float:
    """Plug-in mutual information (nats) from the bivariate cell masses.

    Builds the K x K copula mass grid of the rank pair and returns
    sum_ij m_ij * ln(m_ij / (m_i. * m_.j)) with 0 ln 0 := 0, where the
    margins m_i., m_.j are the grid's row and column sums (the same fixed
    vector for every rank column, see ``_mi_weights``).  Nonnegative (it
    is a KL divergence).  Given two rank columns in table order it equals
    the :func:`weight_matrix` entry bit for bit; swapping the arguments
    transposes the grid, so the sum runs in another order and agrees only
    to rounding (it can differ in the last bit).

    Note: the estimator carries an upward bias of roughly
    (K-1)^2 / (2T) nats at independence; keep K well below sqrt(T)
    when absolute values matter (see ``default_lattice_order``).
    ``lattice_order`` 0 picks ``default_lattice_order(T)``, as in
    :func:`weight_matrix`.
    """
    return _pair_score(rank_x, rank_y, "mi_cell", lattice_order)


@dataclass(frozen=True)
class KernelDensity:
    """Gaussian kernel density estimate of one variable.

    Attributes
    ----------
    samples : ndarray, shape (T,)
    bandwidth : float, > 0
    """

    samples: np.ndarray
    bandwidth: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float).ravel()
        if samples.size == 0:
            raise ValueError("need at least one sample")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        object.__setattr__(self, "samples", samples)

    @classmethod
    def fit(cls, samples, bandwidth: float | None = None) -> "KernelDensity":
        """Build an estimate, defaulting to the Silverman bandwidth
        1.06 * std * T^(-1/5).

        Raises
        ------
        ValueError
            If the default bandwidth is degenerate (fewer than 2 samples
            or zero variance).
        """
        samples = np.asarray(samples, dtype=float).ravel()
        if bandwidth is None:
            if samples.size < 2:
                raise ValueError(
                    "default bandwidth needs at least 2 samples"
                )
            sigma = float(np.std(samples, ddof=1))
            if sigma == 0.0:
                raise ValueError(
                    "degenerate column: zero variance gives zero bandwidth"
                )
            bandwidth = 1.06 * sigma * samples.size ** (-0.2)
        return cls(samples=samples, bandwidth=float(bandwidth))

    def density(self, x):
        """Evaluate the density at a scalar or array of points."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        points = np.atleast_1d(x)
        t = self.samples.size
        h = self.bandwidth
        out = np.empty(points.shape[0], dtype=float)
        norm = 1.0 / (t * h * np.sqrt(2.0 * np.pi))
        # chunked to bound the (points x samples) intermediate
        step = max(1, 2**22 // max(t, 1))
        for start in range(0, points.shape[0], step):
            block = points[start : start + step, np.newaxis]
            z = (block - self.samples[np.newaxis, :]) / h
            out[start : start + step] = norm * np.exp(-0.5 * z * z).sum(axis=1)
        return float(out[0]) if scalar else out


def _scores(ranks: np.ndarray, measure: str, order: int) -> np.ndarray:
    """Signed N x N weights of every column pair of a T x N rank array,
    zero diagonal: the one map from a measure name to its kernel."""
    if measure == "rho_abs":
        return _rho_matrix(ranks)
    scores = _mi_weights(ranks, order)
    if measure == "mi_kde":
        margin = _margins(len(ranks), order)
        # K m_c is formed in integers, so the gap is exactly 0 when K | T
        gap = 2.0 * np.sum(margin / len(ranks) * np.log(order * margin / len(ranks)))
        scores[~np.eye(len(scores), dtype=bool)] += gap
    return scores


def _pair_score(rank_x, rank_y, measure: str, lattice_order: int = 0) -> float:
    """The ``measure`` score of two checked rank columns, with the lattice
    order resolved as :func:`weight_matrix` does."""
    ranks = _rank_pair(rank_x, rank_y)
    return float(_scores(ranks, measure, _lattice_order(lattice_order, ranks.shape[0]))[0, 1])


def _mi_weights(ranks: np.ndarray, order: int) -> np.ndarray:
    """Symmetric N x N lattice MI ("mi_cell") of every column pair of a
    T x N rank array, zero diagonal.

    Each pair's K x K cell counts come from one
    ``empirical._joint_counts`` call per column i over the columns j > i,
    taken in blocks of at most ``_MAX_BLOCK_CELLS`` elements: block row j
    holds the pair's cell index cell_i * K + cell_j.  Reshaped to
    (pairs, K, K), the integer counts n_ij give every cell's ratio to its
    margins in one division, n_ij T / (m_i m_j), with m from
    ``empirical._margins``: every rank column has those margins, so every
    pair does.  Both integer products are at most T^2, so while T^2 <= 2^53
    they are exact in float64 and the ratio is correctly rounded; an
    exactly independent grid has every ratio exactly 1 and an MI of
    exactly 0.0.  Empty cells take the ratio 1, so they add 0, and each
    pair's MI is sum_ij n_ij ln(ratio_ij) / T.
    """
    t, n = ranks.shape
    cells = _cell_indices(ranks, order).T.copy()
    area = order * order
    width = max(1, _MAX_BLOCK_CELLS // max(t, area))
    margin = _margins(t, order)
    den = np.outer(margin, margin)
    values = np.zeros((n, n))
    for i in range(n - 1):
        for lo in range(i + 1, n, width):
            flat = cells[lo : lo + width] + cells[i] * order
            counts = _joint_counts(flat, area).reshape(-1, order, order)
            ratio = np.divide(counts * t, den, out=np.ones(counts.shape), where=counts > 0)
            values[i, lo : lo + width] = (counts * np.log(ratio)).sum(axis=(1, 2)) / t
            values[lo : lo + width, i] = values[i, lo : lo + width]
    return values


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric N x N matrix of pairwise dependence weights.

    ``signed`` holds the scores (the signed rho for rho_abs, the MI, which
    is >= 0, for the MI measures), zero diagonal; ``values`` is derived as
    ``np.abs(signed)``, the spanning weights.
    """

    names: tuple[str, ...]
    measure: str
    lattice_order: int
    signed: np.ndarray
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        names = _unique_names(self.names, "variable")
        n = len(names)
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        object.__setattr__(self, "lattice_order", _integer(self.lattice_order, "lattice order", 2))
        signed = np.asarray(self.signed, dtype=float)
        if signed.shape != (n, n):
            raise ValueError(f"weight matrix must have shape {(n, n)}")
        if not np.all(np.isfinite(signed)):
            raise ValueError("weights must be finite")
        if np.abs(signed - signed.T).max(initial=0.0) > 1e-12:
            raise ValueError("weight matrix must be symmetric")
        if np.any(np.diag(signed) != 0.0):
            raise ValueError("diagonal entries must be 0")
        if self.measure != "rho_abs" and np.any(signed < 0.0):
            raise ValueError(f"{self.measure} weights must be nonnegative")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "signed", signed)
        object.__setattr__(self, "values", np.abs(signed))

    @property
    def dim(self) -> int:
        return len(self.names)


def weight_matrix(
    data: Dataset,
    measure: str = "mi_cell",
    lattice_order: int = 0,
    tie_seed: int = 0,
) -> WeightMatrix:
    """Pairwise dependence weights for every unordered column pair.

    Parameters
    ----------
    data : Dataset
    measure : {"rho_abs", "mi_cell", "mi_kde"}
        ``signed`` holds the signed rho for rho_abs and the MI for the
        MI measures; ``values`` is its absolute value.
    lattice_order : int
        Grid resolution for the MI measures; 0 picks
        ``default_lattice_order(T)``.  Otherwise it must be an integer in
        [2, T] with K^2 at most ``empirical._MAX_CELLS``; it is checked and
        recorded in the result for every measure, though rho_abs does not
        use it (rho always uses the full order-T lattice).
    tie_seed : int
        Seed of the random tie order, see
        :func:`coptree.dataset.column_ranks`: ties are always broken at
        random, since row-stable ordinal ranks let two heavily tied
        columns inherit spurious dependence from shared row ordering.

    Every measure is scored by :func:`_scores`: rho_abs takes every
    pair's rank-product sum from one exact product of the rank matrix
    with itself (see :func:`_rho_matrix`); the MI measures count the cells
    of every pair in one pass per column (see :func:`_mi_weights`).  So
    the single-pair functions, given two of its rank columns in table
    order, return its entries bit for bit.

    The result is deterministic for fixed inputs and independent of the
    order pairs are evaluated in.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    lattice_order = _lattice_order(lattice_order, data.sample_count)
    signed = _scores(column_ranks(data.values, "random", tie_seed), measure, lattice_order)
    return WeightMatrix(data.columns, measure, lattice_order, signed)

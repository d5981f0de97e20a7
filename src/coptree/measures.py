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
:func:`_learn_ranks` is where ``learn`` ranks a table and resolves its
lattice order, for :func:`weight_matrix` and ``coptree measure`` alike.
Its ranks are held one row per column, an N x T array read through its
T x N view ``.T``, and every kernel here gives the same bits on a T x N
rank array of either memory layout.
rho_abs comes from one BLAS product R^T R of the float64 rank matrix
(while every partial sum is an integer of at most 2^53, so it is exact
and the same for any BLAS kernel or thread count; an exact int64 product
beyond, up to T = 3,024,616, and a float64 sum that rounds above that),
the MI measures from one cell-counting pass per column, each block of
integer cell counts scored by looking its cells' terms n ln(n T / d) up
in one table per (T, K) (:func:`_mi_terms`).  Each term's ratio is one
division of two integers, exact in float64 while T^2 <= 2^53, so an
exactly independent grid scores exactly 0.  Each MI weight is the sum of
its pair's K^2 cell terms in ascending order, over T: a function of the
multiset of its cells alone, so swapping the two columns, permuting the
table's columns or (when K | T) reflecting a column, r -> T + 1 - r,
leaves its bits as they were, and two pairs whose grids hold one
multiset tie exactly.  Every log on the MI path, the table's and the
``mi_kde`` gap's, is taken by ``math.log`` (see :func:`_log`), never by
``np.log``, whose kernel numpy picks by CPU, so the MI weights have the
same bits whichever targets numpy dispatches to; whether ``math.log``
agrees across libm builds is not checked.
A pair's score does not depend on the other columns scored with it.
Those guarantees are why :func:`weight_matrix` builds its
:class:`WeightMatrix` through ``dataset._unchecked``, without the
constructor's checks, which stay for matrices from outside.  A
:class:`WeightMatrix` stores the signed scores only; the spanning weight
|s| is derived where it is read (``WeightMatrix.values`` for callers;
in :mod:`coptree.structure`, Prim row by row and ``coverage_ratio`` on
the upper triangle it gathers), so the learn path holds one N x N array.
:class:`KernelDensity` is a standalone utility; no estimator uses it.

The lattice rules live in :mod:`coptree.empirical`: this module takes
the lattice order (``_lattice_order``), the cell rule (``_cell_indices``),
the margins (``_margins``) and the cell counts (``_joint_counts``, the
kernel that also counts the copula grids) from there, and only scores
the counts it is given.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import Dataset, _check_permutations, _integer, _rank_rows, _real, _unchecked, _unique_names
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
    float64 sum over the C-ordered ranks, so a rank array of either
    memory layout gives the bits of its C-ordered copy.
    """
    t = ranks.shape[0]
    if t <= _MAX_FLOAT_EXACT_RHO_T:
        ranks = ranks.astype(np.float64)
        rho = ranks.T @ ranks
    else:
        # the float64 sum rounds in an order that follows the memory
        # layout, so every layout is summed as its C-ordered copy
        ranks = np.ascontiguousarray(ranks)
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
    is a KL divergence).  The cell terms are summed in ascending order, so
    given two rank columns in either order it equals the
    :func:`weight_matrix` entry bit for bit.  Each cell's log is taken by
    ``math.log``, so the result has the same bits whichever CPU targets
    numpy dispatches to.

    Note: the estimator carries an upward bias of roughly
    (K-1)^2 / (2T) nats at independence; keep K well below sqrt(T)
    when absolute values matter (see ``default_lattice_order``).
    ``lattice_order`` 0 picks ``default_lattice_order(T)``, as in
    :func:`weight_matrix`.
    """
    return _pair_score(rank_x, rank_y, "mi_cell", lattice_order)


@dataclass(frozen=True, eq=False)
class KernelDensity:
    """Gaussian kernel density estimate of one variable.

    Attributes
    ----------
    samples : ndarray, shape (T,)
    bandwidth : float, a real number in (0, inf); a bool is not one
    """

    samples: np.ndarray
    bandwidth: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float).ravel()
        if samples.size == 0:
            raise ValueError("need at least one sample")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if not (_real(self.bandwidth) and 0 < self.bandwidth < math.inf):
            raise ValueError(f"bandwidth must be a real number in (0, inf), got {self.bandwidth!r}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "bandwidth", float(self.bandwidth))

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
        return cls(samples=samples, bandwidth=bandwidth)

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
        gap = 2.0 * np.sum(margin / len(ranks) * _log(order * margin / len(ranks)))
        scores += gap
        np.fill_diagonal(scores, 0.0)
    return scores


def _pair_score(rank_x, rank_y, measure: str, lattice_order: int = 0) -> float:
    """The ``measure`` score of two checked rank columns, with the lattice
    order resolved as :func:`weight_matrix` does."""
    ranks = _rank_pair(rank_x, rank_y)
    return float(_scores(ranks, measure, _lattice_order(lattice_order, ranks.shape[0]))[0, 1])


def _learn_ranks(data: Dataset, lattice_order, tie_seed) -> tuple[np.ndarray, int]:
    """The ranks and the resolved lattice order that ``learn`` scores:
    every column of ``data`` ranked with its ties in the seeded random
    order of ``tie_seed``, and ``lattice_order`` resolved as in
    :func:`weight_matrix` (0 picks ``default_lattice_order(T)``).  The
    ranks are those of ``column_ranks(data.values, "random", tie_seed)``,
    made one row per column (``dataset._rank_rows``) and returned as the
    T x N view ``.T`` of that N x T array, with no copy.  The order is
    resolved first, so a bad order is reported before a bad seed."""
    order = _lattice_order(lattice_order, data.sample_count)
    return _rank_rows(data.values, "random", tie_seed).T, order


def _log(x: np.ndarray) -> np.ndarray:
    """The natural log of every entry of a float64 array, each taken by
    ``math.log``: numpy picks its ``np.log`` kernel by CPU, and the bits
    of the result with it."""
    return np.array(list(map(math.log, x.ravel().tolist()))).reshape(x.shape)


def _mi_terms(t: int, low: int) -> np.ndarray:
    """The MI term n ln(n T / d_s) of a lattice cell that holds n samples,
    stored at index s * (low + 2) + n, where low = T // K.

    Every margin is low or low + 1, so a cell's margin product is
    d_s = (low + a)(low + b) with s = a + b in {0, 1, 2}, and a cell holds
    at most low + 1 samples.  n T and d_s are integers, so while both are
    at most 2^53 each ratio is one correctly rounded division; the entry
    at n = 0 is 0 (0 ln 0 := 0).
    """
    n = np.arange(low + 2)
    ratio = n * t / np.array([low * low, low * (low + 1), (low + 1) ** 2])[:, np.newaxis]
    ratio[:, 0] = 1.0
    return (n * _log(ratio)).ravel()


def _mi_weights(ranks: np.ndarray, order: int) -> np.ndarray:
    """Symmetric N x N lattice MI ("mi_cell") of every column pair of a
    T x N rank array, zero diagonal.

    The cell indices are counted one row per column: on the ``.T`` view
    of :func:`_learn_ranks` that N x T array is the indices' own
    layout, with no copy; a C-ordered T x N array is copied once.
    Each pair's K x K cell counts come from one
    ``empirical._joint_counts`` call per column i over the columns j > i,
    taken in blocks of at most ``_MAX_BLOCK_CELLS`` elements: block row j
    holds the pair's cell index cell_i * K + cell_j.  Every rank column
    has the margins m of ``empirical._margins``, each low = T // K or
    low + 1, so cell (a, b) finds its term n_ab ln(n_ab T / (m_a m_b)) in
    the :func:`_mi_terms` table at n_ab + base_ab, where base_ab is
    (m_a + m_b - 2 low)(low + 2).  Each pair's MI is the sum of its K^2
    terms in ascending order, over T, so it depends on the multiset of its
    cells only, not on which column is i or where the cells lie.  An
    exactly independent grid has every ratio exactly 1 and an MI of
    exactly 0.0.
    """
    t, n = ranks.shape
    cells = np.ascontiguousarray(_cell_indices(ranks, order).T)
    area = order * order
    width = max(1, _MAX_BLOCK_CELLS // max(t, area))
    low = t // order
    klass = _margins(t, order) - low
    base = ((klass[:, np.newaxis] + klass) * (low + 2)).ravel()
    terms = _mi_terms(t, low)
    values = np.zeros((n, n))
    for i in range(n - 1):
        for lo in range(i + 1, n, width):
            flat = cells[lo : lo + width] + cells[i] * order
            index = _joint_counts(flat, area) + base
            values[i, lo : lo + width] = np.sort(terms[index], axis=1).sum(axis=1) / t
            values[lo : lo + width, i] = values[i, lo : lo + width]
    return values


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Symmetric N x N matrix of pairwise dependence weights.

    ``signed`` holds the scores (the signed rho for rho_abs, the MI, which
    is >= 0, for the MI measures), zero diagonal, and is the one array
    stored.  It is read-only, a copy of the array given, so the checks
    made here hold for the object's lifetime.  Equality is identity.
    """

    names: tuple[str, ...]
    measure: str
    lattice_order: int
    signed: np.ndarray

    def __post_init__(self):
        names = _unique_names(self.names, "variable")
        n = len(names)
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        object.__setattr__(self, "lattice_order", _integer(self.lattice_order, "lattice order", 2))
        signed = np.array(self.signed, dtype=float)
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
        signed.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "signed", signed)

    @cached_property
    def values(self) -> np.ndarray:
        """The spanning weights ``np.abs(signed)``, read-only, built on
        first read: ``signed`` itself when no entry carries a minus sign
        (so for the MI measures :func:`weight_matrix` scores), otherwise a
        second array.  The package reads ``signed`` only and takes |s|
        where it needs it."""
        values = np.abs(self.signed) if np.signbit(self.signed).any() else self.signed
        values.setflags(write=False)
        return values

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
        MI measures; ``values`` is its absolute value, derived on read.
    lattice_order : int
        Grid resolution for the MI measures; 0 picks
        ``default_lattice_order(T)``.  Otherwise it must be an integer in
        [2, T] with K^2 at most ``empirical._MAX_CELLS``; it is checked and
        recorded in the result for every measure, though rho_abs does not
        use it (rho always uses the full order-T lattice).
    tie_seed : int
        Seed of the random tie order, an integer >= 0 used mod 2^64, see
        :func:`coptree.dataset.column_ranks`: ties are always broken at
        random, since row-stable ordinal ranks let two heavily tied
        columns inherit spurious dependence from shared row ordering.
        The order is SplitMix64 keyed by (seed, tied-column ordinal, row),
        the same on every numpy version and CPU.

    Every measure is scored by :func:`_scores`: rho_abs takes every
    pair's rank-product sum from one product of the rank matrix with
    itself, exact up to T = 3,024,616 and a rounded float64 sum above
    (see :func:`_rho_matrix`); the MI measures count the cells
    of every pair in one pass per column (see :func:`_mi_weights`).  So
    the single-pair functions, given two of its rank columns in either
    order, return its entries bit for bit.

    The result is deterministic for fixed inputs and independent of the
    order pairs are evaluated in.  It is built without the
    :class:`WeightMatrix` checks, which :func:`_scores` meets by
    construction: finite weights, exactly symmetric (the rank Gram fills
    both triangles, ``_mi_weights`` mirrors its rows), a zero diagonal and
    a nonnegative MI.  ``signed`` is read-only and is the one N x N array
    it holds.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    ranks, lattice_order = _learn_ranks(data, lattice_order, tie_seed)
    signed = _scores(ranks, measure, lattice_order)
    signed.setflags(write=False)
    return _unchecked(WeightMatrix, names=data.columns, measure=measure,
                      lattice_order=lattice_order, signed=signed)

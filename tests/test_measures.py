"""Spearman's rho, lattice mutual information, kernel densities, and the
pairwise weight matrix."""
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coptree import (
    MEASURES,
    Dataset,
    KernelDensity,
    RankMatrix,
    WeightMatrix,
    column_ranks,
    copula_mass_grid,
    default_lattice_order,
    load_synthetic_spec,
    generate_synthetic,
    mutual_info_cell,
    sample_gaussian_copula,
    spearman_rho,
    weight_matrix,
)
from coptree import empirical, measures
from coptree.empirical import _cell_indices
from oracles import naive_spearman, observed_margin_mi, uniform_margin_mi


class TestSpearmanRho:
    def test_comonotone_pair(self):
        assert spearman_rho([1, 2], [1, 2]) == 1.0

    def test_countermonotone_pair(self):
        assert spearman_rho([1, 2], [2, 1]) == -1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="permutation"):
            spearman_rho([1, 1], [1, 2])
        with pytest.raises(ValueError, match="length mismatch"):
            spearman_rho([1, 2, 3], [1, 2])
        with pytest.raises(ValueError, match="at least 2"):
            spearman_rho([1], [1])

    @pytest.mark.parametrize("t", [3, 5, 17, 50, 101, 200])
    def test_fast_equals_naive_double_sum(self, t):
        rng = np.random.default_rng(t)
        for _ in range(4):
            rx = rng.permutation(t) + 1
            ry = rng.permutation(t) + 1
            assert abs(spearman_rho(rx, ry) - naive_spearman(rx, ry)) < 1e-10

    def test_fast_equals_naive_exhaustively_small(self):
        # row permutations leave both forms unchanged, so fixing the first
        # column to the identity exhausts all distinct cases
        for t in range(2, 7):
            identity = np.arange(1, t + 1)
            for perm in itertools.permutations(range(1, t + 1)):
                ry = np.array(perm)
                assert abs(spearman_rho(identity, ry) - naive_spearman(identity, ry)) < 1e-10

    def test_matches_pearson_of_ranks(self):
        rng = np.random.default_rng(11)
        for t in (4, 9, 25, 120):
            rx = rng.permutation(t) + 1
            ry = rng.permutation(t) + 1
            pearson = np.corrcoef(rx, ry)[0, 1]
            assert abs(spearman_rho(rx, ry) - pearson) < 2.0 / t

    def test_sign_antisymmetry(self):
        rng = np.random.default_rng(12)
        t = 40
        rx = rng.permutation(t) + 1
        ry = rng.permutation(t) + 1
        flipped = t + 1 - ry
        assert abs(spearman_rho(rx, flipped) + spearman_rho(rx, ry)) < 2.0 / t

    def test_independent_uniforms_stay_small(self):
        # measured over seeds 0..99: every |rho| < 0.08
        for seed in range(100):
            rng = np.random.default_rng(seed)
            ranks = column_ranks(rng.random((1000, 2)))
            assert abs(spearman_rho(ranks[:, 0], ranks[:, 1])) < 0.08

    def test_outlier_barely_moves_rho(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((1000, 2))
        base[:, 1] = 0.6 * base[:, 0] + 0.8 * base[:, 1]
        ranks = column_ranks(base)
        rho_before = spearman_rho(ranks[:, 0], ranks[:, 1])
        spoiled = base.copy()
        spoiled[0] = [1e6, 1e6]
        ranks_after = column_ranks(spoiled)
        rho_after = spearman_rho(ranks_after[:, 0], ranks_after[:, 1])
        assert abs(rho_after - rho_before) < 0.02


class TestMutualInfoCell:
    def test_one_sample_per_cell_is_independent(self):
        # 16 samples on a 4x4 grid, one per cell
        rx = np.arange(1, 17)
        ry = np.array([(i % 4) * 4 + i // 4 + 1 for i in range(16)])
        assert mutual_info_cell(rx, ry, 4) == 0.0

    def test_comonotone_two_cells(self):
        ranks = np.arange(1, 5)
        assert mutual_info_cell(ranks, ranks, 2) == pytest.approx(math.log(2), abs=1e-12)

    def test_nonnegative_and_symmetric(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            t = int(rng.integers(4, 60))
            order = int(rng.integers(2, t + 1))
            rx = rng.permutation(t) + 1
            ry = rng.permutation(t) + 1
            forward = mutual_info_cell(rx, ry, order)
            backward = mutual_info_cell(ry, rx, order)
            assert forward >= 0.0
            assert abs(forward - backward) < 1e-12

    def test_table_order_is_exact_and_swapped_order_agrees_to_rounding(self):
        # a tied table: the transposed grid sums in another order, which
        # here moves the last bit; in table order the weight_matrix entry
        # is matched bit for bit
        table = np.ones((43, 2))
        r = column_ranks(table, "random", 0)
        forward = mutual_info_cell(r[:, 0], r[:, 1], 3)
        backward = mutual_info_cell(r[:, 1], r[:, 0], 3)
        w = weight_matrix(Dataset(columns=("a", "b"), values=table), "mi_cell", 3)
        assert forward == w.signed[0, 1] == 0.05102908175678003
        assert backward == 0.05102908175678002
        assert abs(forward - backward) <= 1e-15

    def test_order_validation(self):
        ranks = np.arange(1, 9)
        with pytest.raises(ValueError, match="lattice order"):
            mutual_info_cell(ranks, ranks, 1)
        with pytest.raises(ValueError, match="lattice order"):
            mutual_info_cell(ranks, ranks, 9)

    def test_independence_bias_matches_theory(self):
        # plug-in MI at independence concentrates near (K-1)^2 / (2T);
        # at K=31, T=1000 that is ~0.45-0.55 nats, far from zero
        values = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ranks = column_ranks(rng.random((1000, 2)))
            values.append(mutual_info_cell(ranks[:, 0], ranks[:, 1], 31))
        assert 0.35 < min(values) and max(values) < 0.65

    def test_independence_bias_small_at_default_order(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ranks = column_ranks(rng.random((1000, 2)))
            assert mutual_info_cell(ranks[:, 0], ranks[:, 1], 7) < 0.07


class TestKernelDensity:
    def test_single_kernel_peak(self):
        kd = KernelDensity(samples=np.array([0.0]), bandwidth=0.5)
        assert kd.density(0.0) == pytest.approx(1.0 / (0.5 * math.sqrt(2 * math.pi)))

    def test_symmetry(self):
        kd = KernelDensity.fit(np.array([-1.0, 1.0]), bandwidth=0.7)
        for x in (0.5, 1.3, 2.0):
            assert kd.density(x) == pytest.approx(kd.density(-x))

    def test_standard_normal_at_zero(self):
        samples = np.random.default_rng(11).standard_normal(5000)
        kd = KernelDensity.fit(samples)
        assert abs(kd.density(0.0) - 1.0 / math.sqrt(2 * math.pi)) < 0.05

    def test_silverman_default(self):
        samples = np.random.default_rng(14).standard_normal(500)
        kd = KernelDensity.fit(samples)
        expected = 1.06 * np.std(samples, ddof=1) * 500 ** (-0.2)
        assert kd.density(0.1) > 0.0
        assert kd.bandwidth == pytest.approx(expected)

    def test_degenerate_sample_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            KernelDensity.fit(np.ones(50))
        with pytest.raises(ValueError, match="bandwidth"):
            KernelDensity(samples=np.array([1.0, 2.0]), bandwidth=0.0)

    def test_vector_evaluation_matches_scalar(self):
        kd = KernelDensity.fit(np.random.default_rng(15).standard_normal(100))
        points = np.array([-0.5, 0.0, 1.5])
        vector = kd.density(points)
        assert vector.tolist() == [kd.density(float(x)) for x in points]


def mi_kde_pair(rank_x, rank_y, order):
    """The mi_kde score of two rank columns, scored as weight_matrix scores
    every pair (mi_kde has no single-pair function)."""
    return measures._scores(np.column_stack([rank_x, rank_y]), "mi_kde", order)[0, 1]


class TestMutualInfoKde:
    def test_comonotone_reaches_log_order(self):
        x = np.random.default_rng(0).standard_normal(1000)
        ranks = column_ranks(np.column_stack([x, x]))
        value = mi_kde_pair(ranks[:, 0], ranks[:, 1], 31)
        assert abs(value - math.log(31)) < 0.15

    def test_agrees_with_cell_estimator_under_dependence(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        uniforms = sample_gaussian_copula(sigma, 2000, seed=3)
        ranks = column_ranks(uniforms)
        kde_value = mi_kde_pair(ranks[:, 0], ranks[:, 1], 31)
        cell_value = mutual_info_cell(ranks[:, 0], ranks[:, 1], 31)
        assert abs(kde_value - cell_value) < 0.1

    def test_independent_normals_carry_the_grid_bias(self):
        # same plug-in bias as the cell estimator: ~0.5 nats at K=31, T=1000
        rng = np.random.default_rng(1)
        ranks = column_ranks(rng.standard_normal((1000, 2)))
        value = mi_kde_pair(ranks[:, 0], ranks[:, 1], 31)
        assert 0.35 < value < 0.65

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_uniform_margin_oracle(self, data):
        t = data.draw(st.integers(10, 300), label="T")
        order = data.draw(st.integers(2, t), label="K")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        # correlated and rounded to 0.1, so ties go through the tie order
        xy = np.round(rng.standard_normal((t, 2)) @ [[1.0, 0.6], [0.0, 0.8]], 1)
        ranks = column_ranks(xy, "random", 0)
        value = mi_kde_pair(ranks[:, 0], ranks[:, 1], order)
        assert abs(value - uniform_margin_mi(ranks, order)) <= 1e-12
        if t % order == 0:
            cell = mutual_info_cell(ranks[:, 0], ranks[:, 1], order)
            assert abs(value - cell) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_is_cell_mi_plus_a_margin_constant(self, data):
        # every rank column puts m_c samples in lattice cell c, so for every
        # pair mi_kde - mi_cell = 2 sum_c (m_c/T) ln(K m_c/T), twice the KL
        # divergence of the margins from uniform: 0, bit for bit, if K | T
        order = data.draw(st.integers(2, 50), label="K")
        t = order * data.draw(st.integers(1, 40), label="T // K")
        t += data.draw(st.just(0) | st.integers(0, order - 1), label="T % K")
        n = data.draw(st.integers(2, 5), label="N")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        values = np.round(rng.standard_normal((t, n)) @ rng.standard_normal((n, n)), 1)
        table = Dataset(columns=tuple(f"c{j}" for j in range(n)), values=values)
        kde = weight_matrix(table, "mi_kde", order).values
        cell = weight_matrix(table, "mi_cell", order).values
        if t % order == 0:
            assert np.array_equal(kde, cell)
        else:
            margin = np.diff(np.arange(order + 1) * t // order) / t
            gap = 2.0 * np.sum(margin * np.log(order * margin))
            off_diagonal = ~np.eye(n, dtype=bool)
            assert np.abs(kde - cell - gap)[off_diagonal].max() <= 1e-12


class TestWeightMatrix:
    def test_two_columns_single_pair(self):
        rng = np.random.default_rng(16)
        values = rng.standard_normal((80, 2))
        data = Dataset(columns=("a", "b"), values=values)
        w = weight_matrix(data, "rho_abs")
        ranks = column_ranks(values, "random", 0)
        expected = spearman_rho(ranks[:, 0], ranks[:, 1])
        assert w.signed[0, 1] == expected
        assert w.values[0, 1] == abs(expected)
        assert w.values[0, 0] == w.values[1, 1] == 0.0

    @pytest.mark.parametrize("measure", ["rho_abs", "mi_cell", "mi_kde"])
    def test_symmetric_nonnegative(self, measure):
        rng = np.random.default_rng(17)
        values = rng.standard_normal((120, 4))
        data = Dataset(columns=tuple("abcd"), values=values)
        w = weight_matrix(data, measure)
        assert np.array_equal(w.values, w.values.T)
        assert np.all(w.values[~np.eye(4, dtype=bool)] >= 0.0)
        assert np.all(np.diag(w.values) == 0.0)

    @pytest.mark.parametrize("measure", ["rho_abs", "mi_cell", "mi_kde"])
    def test_exact_invariance_under_increasing_transforms(self, measure):
        rng = np.random.default_rng(18)
        values = np.round(rng.standard_normal((150, 3)), 1)  # includes ties
        data = Dataset(columns=("a", "b", "c"), values=values)
        base = weight_matrix(data, measure)
        for transform in (np.exp, lambda v: v**3, lambda v: 0.5 * v + 3.0):
            moved = Dataset(columns=("a", "b", "c"), values=transform(values))
            w = weight_matrix(moved, measure)
            assert np.array_equal(base.values, w.values)
            assert np.array_equal(base.signed, w.signed)

    def test_block_structure_separates_weights(self, synthetic_spec):
        # within-block weights beat every cross-block weight in >= 95 of
        # 100 seeded runs (measured: 100 of 100)
        within = [(0, 1), (0, 2), (1, 2), (3, 4)]
        cross = [(i, j) for i in (0, 1, 2) for j in (3, 4)]
        hits = 0
        for seed in range(100):
            data = generate_synthetic(synthetic_spec, seed=seed)
            w = weight_matrix(data, "mi_cell")
            lowest_within = min(w.values[i, j] for i, j in within)
            highest_cross = max(w.values[i, j] for i, j in cross)
            if lowest_within > highest_cross:
                hits += 1
        assert hits >= 95

    def test_validation(self):
        rng = np.random.default_rng(19)
        data = Dataset(columns=("a", "b"), values=rng.standard_normal((30, 2)))
        with pytest.raises(ValueError, match="measure"):
            weight_matrix(data, "kendall")
        with pytest.raises(ValueError, match="lattice order"):
            weight_matrix(data, "mi_cell", lattice_order=31)
        for order in (-3, 1, 31):
            with pytest.raises(ValueError, match="lattice order"):
                weight_matrix(data, "rho_abs", lattice_order=order)

    @pytest.mark.parametrize("measure", MEASURES)
    def test_asymmetric_scores_rejected(self, measure):
        signed = np.array([[0.0, 0.9, 0.5], [0.9, 0.0, 0.1], [0.5, -0.3, 0.0]])
        with pytest.raises(ValueError, match="^weight matrix must be symmetric$"):
            WeightMatrix(("a", "b", "c"), measure, 2, signed)

    @pytest.mark.parametrize("measure", ["mi_cell", "mi_kde"])
    def test_negative_mi_rejected(self, measure):
        signed = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match=f"^{measure} weights must be nonnegative$"):
            WeightMatrix(("a", "b"), measure, 2, signed)

    def test_negative_rho_kept_signed(self):
        w = WeightMatrix(("a", "b"), "rho_abs", 2, np.array([[0.0, -0.5], [-0.5, 0.0]]))
        assert w.signed[0, 1] == -0.5 and w.values[0, 1] == 0.5

    @pytest.mark.parametrize("measure", MEASURES)
    def test_duplicate_names_rejected(self, measure):
        with pytest.raises(ValueError, match=r"^duplicate variable name\(s\): a$"):
            WeightMatrix(("a", "a", "b"), measure, 2, np.zeros((3, 3)))

    # every measure records a lattice order K >= 2, rho_abs included
    @pytest.mark.parametrize("order", [-7, 0, 1, True, 2.0, "3", None])
    def test_lattice_order_must_be_an_integer_of_at_least_2(self, order):
        with pytest.raises(ValueError, match="^lattice order must be"):
            WeightMatrix(("a", "b", "c"), "rho_abs", order, np.zeros((3, 3)))

    def test_numpy_lattice_order_stored_as_int(self):
        w = WeightMatrix(("a", "b"), "mi_cell", np.int64(5), np.zeros((2, 2)))
        assert type(w.lattice_order) is int and w.lattice_order == 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        weights = np.array([[0.0, bad], [bad, 0.0]])
        for measure in MEASURES:
            with pytest.raises(ValueError, match="finite"):
                WeightMatrix(names=("a", "b"), measure=measure, lattice_order=2,
                             signed=weights)

    @pytest.mark.parametrize("measure", MEASURES)
    def test_values_are_the_absolute_scores(self, measure):
        rng = np.random.default_rng(21)
        values = rng.standard_normal((80, 4))
        values[:, 1] -= values[:, 0]
        w = weight_matrix(Dataset(columns=tuple("abcd"), values=values), measure)
        assert np.array_equal(w.values, np.abs(w.signed))


LATTICE_T = 500  # default lattice order 5


def _score_with_order(function, order):
    """The MI of a fixed dependent pair of ``LATTICE_T`` samples, scored
    by the named measure entry at lattice order ``order``."""
    values = np.random.default_rng(20).standard_normal((LATTICE_T, 2))
    values[:, 1] += values[:, 0]
    if function == "weight_matrix":
        table = Dataset(columns=("a", "b"), values=values)
        return weight_matrix(table, "mi_cell", order).values[0, 1]
    ranks = column_ranks(values, "random", 0)
    return getattr(measures, function)(ranks[:, 0], ranks[:, 1], order)


@pytest.mark.parametrize("function", ["weight_matrix", "mutual_info_cell"])
class TestLatticeOrder:
    """Every measure entry resolves its lattice order the same way."""

    @pytest.mark.parametrize("order", [-3, 1, LATTICE_T + 1, 2.5, 2.0, True, False, "3", None])
    def test_rejected(self, function, order):
        with pytest.raises(ValueError, match="lattice order"):
            _score_with_order(function, order)

    def test_accepted(self, function):
        default = default_lattice_order(LATTICE_T)
        assert default == 5
        assert _score_with_order(function, 0) == _score_with_order(function, default)
        assert _score_with_order(function, np.int64(4)) == _score_with_order(function, 4)

    def test_cell_budget(self, function, monkeypatch):
        # a K x K lattice may hold at most the grids' _MAX_CELLS cells
        monkeypatch.setattr(empirical, "_MAX_CELLS", 15)
        with pytest.raises(ValueError,
                           match="lattice order 4 in dimension 2 needs 16 cells, more than 15"):
            _score_with_order(function, 4)
        assert _score_with_order(function, 3) > 0.0


def balanced_grid_ranks(order, per_cell):
    """A rank pair with exactly per_cell samples in every cell of the
    order-K lattice: an exactly independent grid."""
    a, rest = np.divmod(np.arange(order * order * per_cell), order * per_cell)
    b, rep = np.divmod(rest, per_cell)
    rank_x = (a * order + b) * per_cell + rep + 1
    rank_y = (b * order + a) * per_cell + rep + 1
    return rank_x, rank_y


class TestBulkMiWeights:
    """The MI measures count every pair's cells in one pass per column."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_oracles(self, data):
        n = data.draw(st.integers(2, 5), label="N")
        t = data.draw(st.integers(2, 40), label="T")
        order = data.draw(st.one_of(st.just(2), st.just(t), st.integers(2, t)), label="K")
        levels = data.draw(st.integers(2, 2 * t), label="levels")
        budget = data.draw(st.sampled_from([1, t, 3 * max(t, order * order), 2**20]),
                           label="block budget")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        # few levels give heavily tied, and at times constant, columns
        values = rng.integers(0, levels, size=(t, n)).astype(float)
        table = Dataset(columns=tuple(f"c{j}" for j in range(n)), values=values)
        ranks = column_ranks(values, "random", 0)
        with mock.patch.object(measures, "_MAX_BLOCK_CELLS", budget):
            cell = weight_matrix(table, "mi_cell", order)
            kde = weight_matrix(table, "mi_kde", order)
        for i, j in itertools.combinations(range(n), 2):
            pair = ranks[:, [i, j]]
            assert abs(cell.values[i, j] - observed_margin_mi(pair, order)) <= 1e-12
            assert abs(kde.values[i, j] - uniform_margin_mi(pair, order)) <= 1e-12
        for w in (cell, kde):
            assert np.array_equal(w.values, w.values.T)
            assert np.array_equal(w.values, w.signed)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_scores_the_counts_of_the_pair_mass_grid(self, data):
        # _mi_weights and copula_mass_grid count every pair's cells through
        # the one kernel, so the integer grid that MI scores is the mass
        # grid of the pair's two rank columns, times T
        t = data.draw(st.integers(2, 60), label="T")
        n = data.draw(st.integers(2, 5), label="N")
        order = data.draw(st.integers(2, t), label="K")
        levels = data.draw(st.integers(1, 6), label="levels")
        budget = data.draw(st.sampled_from([1, t, 2**20]), label="block budget")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        ranks = column_ranks(rng.integers(0, levels, size=(t, n)).astype(float), "random", 0)
        scored = []

        def recording(flat, size):
            scored.append(empirical._joint_counts(flat, size))
            return scored[-1]

        with mock.patch.object(measures, "_joint_counts", recording), \
                mock.patch.object(measures, "_MAX_BLOCK_CELLS", budget):
            measures._mi_weights(ranks, order)
        # blocks run over i, then over j > i in rising order
        rows = np.concatenate(scored)
        pairs = list(itertools.combinations(range(n), 2))
        assert rows.shape == (len(pairs), order * order)
        for (i, j), row in zip(pairs, rows):
            pair = RankMatrix(ranks[:, [i, j]])
            k, counts = empirical._cell_counts(pair, order)
            assert k == order
            assert np.array_equal(row.reshape(order, order), counts)
            assert np.array_equal(copula_mass_grid(pair, order).values, counts / t)

    @pytest.mark.parametrize("order, per_cell", [(5, 4), (12, 1)])
    def test_exactly_independent_grid_scores_zero(self, order, per_cell):
        rank_x, rank_y = balanced_grid_ranks(order, per_cell)
        table = Dataset(columns=("x", "y"), values=np.column_stack([rank_x, rank_y]) * 1.0)
        for measure in ("mi_cell", "mi_kde"):
            assert weight_matrix(table, measure, order).values[0, 1] == 0.0
        assert mutual_info_cell(rank_x, rank_y, order) == 0.0
        assert mi_kde_pair(rank_x, rank_y, order) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_margin_preserving_swaps_of_a_balanced_grid(self, data):
        order = data.draw(st.integers(2, 12), label="K")
        per_cell = data.draw(st.integers(1, 5), label="per cell")
        swaps = data.draw(st.integers(0, 3), label="swaps")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        rank_x, rank_y = balanced_grid_ranks(order, per_cell)
        t = rank_x.size
        for _ in range(swaps):
            # moving one sample each from cells (a1, b2) and (a2, b1) to
            # (a1, b1) and (a2, b2) keeps every row and column sum
            a1, a2 = rng.choice(order, 2, replace=False)
            b1, b2 = rng.choice(order, 2, replace=False)
            cell_x = (rank_x * order - 1) // t
            cell_y = (rank_y * order - 1) // t
            first = np.flatnonzero((cell_x == a1) & (cell_y == b2))
            second = np.flatnonzero((cell_x == a2) & (cell_y == b1))
            if first.size and second.size:
                i, j = rng.choice(first), rng.choice(second)
                rank_y[i], rank_y[j] = rank_y[j], rank_y[i]
        pair = np.column_stack([rank_x, rank_y])
        table = Dataset(columns=("x", "y"), values=pair * 1.0)
        cell = weight_matrix(table, "mi_cell", order).values[0, 1]
        kde = weight_matrix(table, "mi_kde", order).values[0, 1]
        assert cell >= 0.0 and kde >= 0.0
        assert abs(cell - observed_margin_mi(pair, order)) <= 1e-12
        assert abs(kde - uniform_margin_mi(pair, order)) <= 1e-12
        if swaps == 0:
            assert cell == kde == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_rank_column_has_the_fixed_lattice_margins(self, data):
        # _mi_weights takes the mi_cell margins from (T, K) instead of
        # summing each pair's counts; this is the fact that allows it
        t = data.draw(st.integers(2, 400), label="T")
        order = data.draw(st.integers(2, t), label="K")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        column = np.random.default_rng(seed).permutation(t) + 1
        cells = _cell_indices(column[:, np.newaxis], order)[:, 0]
        margin = np.diff(np.arange(order + 1) * t // order)
        assert np.array_equal(np.bincount(cells, minlength=order), margin)

    @staticmethod
    def _per_pair(ranks, measure, order):
        n = ranks.shape[1]
        expected = np.zeros((n, n))
        pair_mi = mutual_info_cell if measure == "mi_cell" else mi_kde_pair
        for i, j in itertools.combinations(range(n), 2):
            expected[i, j] = expected[j, i] = pair_mi(ranks[:, i], ranks[:, j], order)
        return expected

    # budget 1600 gives blocks of 3 columns on housing (T=506) and of 1 on
    # the tied table (T=3000); 7000 gives 13 and 2
    @pytest.mark.parametrize("budget", [None, 1600, 7000])
    @pytest.mark.parametrize("measure", ["mi_cell", "mi_kde"])
    def test_bit_identical_to_per_pair_calls(self, housing, measure, budget):
        rng = np.random.default_rng(21)
        mixed = rng.standard_normal((3000, 7)) @ rng.standard_normal((7, 7))
        tied = Dataset(columns=tuple("abcdefg"), values=np.round(mixed, 0))
        for table in (housing, tied):
            order = default_lattice_order(table.sample_count)
            for tie_seed in (0, 1):
                ranks = column_ranks(table.values, "random", tie_seed)
                expected = self._per_pair(ranks, measure, order)
                with mock.patch.object(
                    measures, "_MAX_BLOCK_CELLS", budget or measures._MAX_BLOCK_CELLS
                ):
                    w = weight_matrix(table, measure, tie_seed=tie_seed)
                assert np.array_equal(w.values, expected)


class TestBulkRhoWeights:
    """rho_abs scores every pair from one integer product of the ranks."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_oracle(self, data):
        n = data.draw(st.integers(2, 5), label="N")
        t = data.draw(st.integers(2, 40), label="T")
        levels = data.draw(st.integers(2, 2 * t), label="levels")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        # few levels give heavily tied columns
        values = rng.integers(0, levels, size=(t, n)).astype(float)
        table = Dataset(columns=tuple(f"c{j}" for j in range(n)), values=values)
        w = weight_matrix(table, "rho_abs")
        ranks = column_ranks(values, "random", 0)
        for i, j in itertools.combinations(range(n), 2):
            expected = naive_spearman(ranks[:, i], ranks[:, j])
            assert abs(w.signed[i, j] - expected) <= 1e-12
        assert np.array_equal(w.signed, w.signed.T)
        assert np.array_equal(w.values, np.abs(w.signed))
        assert np.all(np.diag(w.signed) == 0.0)

    def test_bit_identical_to_per_pair_calls(self, housing):
        rng = np.random.default_rng(21)
        mixed = rng.standard_normal((3000, 7)) @ rng.standard_normal((7, 7))
        tied = Dataset(columns=tuple("abcdefg"), values=np.round(mixed, 0))
        for table in (housing, tied):
            n = table.dim
            for tie_seed in (0, 1):
                ranks = column_ranks(table.values, "random", tie_seed)
                expected = np.zeros((n, n))
                for i, j in itertools.combinations(range(n), 2):
                    rho = spearman_rho(ranks[:, i], ranks[:, j])
                    expected[i, j] = expected[j, i] = rho
                w = weight_matrix(table, "rho_abs", tie_seed=tie_seed)
                assert np.array_equal(w.signed, expected)
                assert np.array_equal(w.values, np.abs(expected))

    def test_int64_product_bound(self, housing):
        # the largest rank-product sum, sum_t t^2, fits int64 up to the bound
        t = measures._MAX_EXACT_RHO_T
        def squares(k):
            return k * (k + 1) * (2 * k + 1) // 6

        assert squares(t) < 2**63 <= squares(t + 1)
        # beyond it the product is float64, which is exact too at small T
        ranks = column_ranks(housing.values, "random", 0)
        exact = measures._rho_matrix(ranks)
        with mock.patch.object(measures, "_MAX_EXACT_RHO_T", 1):
            assert np.array_equal(measures._rho_matrix(ranks), exact)

    def test_float64_product_bound(self):
        # up to the bound every partial sum of rank products is an integer
        # of at most 2^53, so the float64 product is exact
        t = measures._MAX_FLOAT_EXACT_RHO_T
        def squares(k):
            return k * (k + 1) * (2 * k + 1) // 6

        assert squares(t) <= 2**53 < squares(t + 1)
        # a comonotone pair has the largest sum, sum_t t^2
        column = np.random.default_rng(3).permutation(t) + 1
        ranks = np.column_stack([column, column])
        s = squares(t)
        exact = (float(s) - t * (t + 1.0) ** 2 / 4.0) * 12.0 / (t * (t * t - 1.0))
        rho = measures._rho_matrix(ranks)
        assert rho[0, 1] == exact
        with mock.patch.object(measures, "_MAX_FLOAT_EXACT_RHO_T", 1):
            assert np.array_equal(measures._rho_matrix(ranks), rho)

    def test_blas_product_on_a_wide_table(self):
        # 2000 x 150 is large enough for BLAS to block and thread the
        # product; its integer sums stay exact, so it equals the int64 path
        t, n = 2000, 150
        rng = np.random.default_rng(11)
        permuted = np.argsort(rng.random((t, n)), axis=0) + 1
        mixed = rng.standard_normal((t, n)) @ rng.standard_normal((n, n))
        tied = Dataset(columns=tuple(f"c{j}" for j in range(n)),
                       values=np.round(mixed / 4.0))
        for ranks in (permuted, column_ranks(tied.values, "random", 0)):
            rho = measures._rho_matrix(ranks)
            with mock.patch.object(measures, "_MAX_FLOAT_EXACT_RHO_T", 1):
                assert np.array_equal(measures._rho_matrix(ranks), rho)
            assert np.array_equal(rho, rho.T)
        signed = weight_matrix(tied, "rho_abs").signed
        assert np.array_equal(signed, signed.T)

    def test_exact_and_row_order_free_beyond_float_sums(self):
        # At T = 400000 the rank-product sum of a strongly dependent pair is
        # above 2^53, so float64 partial sums round and the result can
        # depend on the row order.  The integer product sums exactly.
        t = 400_000
        rng = np.random.default_rng(7)
        values = rng.standard_normal((t, 2))
        values[:, 1] = values[:, 0] + 0.1 * values[:, 1]
        ranks = column_ranks(values, "random", 0)
        s = sum(a * b for a, b in zip(ranks[:, 0].tolist(), ranks[:, 1].tolist()))
        exact = (float(s) - t * (t + 1.0) ** 2 / 4.0) * 12.0 / (t * (t * t - 1.0))
        rows = rng.permutation(t)
        rho = [spearman_rho(ranks[order, 0], ranks[order, 1])
               for order in (np.arange(t), rows)]
        signed = [weight_matrix(Dataset(columns=("a", "b"), values=table),
                                "rho_abs").signed[0, 1]
                  for table in (values, values[rows])]
        assert rho[0] == rho[1] and signed[0] == signed[1]
        assert rho[0] == exact and signed[0] == exact


class TestScores:
    """``measures._scores`` is the one scorer behind every entry point."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_pair_of_rank_columns_scores_the_matrix_entry(self, data):
        # coptree measure scores two columns of the whole table's ranks in
        # table order; it prints 6 decimals, so only this sees a last-bit
        # drift
        t = data.draw(st.integers(2, 300), label="T")
        n = data.draw(st.integers(2, 6), label="N")
        measure = data.draw(st.sampled_from(MEASURES), label="measure")
        order = data.draw(st.sampled_from([0, 2, t]) | st.integers(2, t), label="K")
        tie_seed = data.draw(st.integers(0, 2), label="tie seed")
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                  unique=True), label="pair")
        levels = data.draw(st.integers(1, 6), label="levels")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        values = rng.integers(0, levels, size=(t, n)).astype(float)
        table = Dataset(columns=tuple(f"c{k}" for k in range(n)), values=values)
        ranks = column_ranks(values, "random", tie_seed)
        entry = weight_matrix(table, measure, order, tie_seed).signed[i, j]
        order = measures._lattice_order(order, t)
        pair = measures._scores(ranks[:, sorted((i, j))], measure, order)
        assert pair[0, 1] == pair[1, 0] == entry
        assert pair[0, 0] == pair[1, 1] == 0.0
        # the other column order transposes each MI grid, whose cells are
        # then summed in another order: equal up to rounding, not bit for bit
        swapped = measures._scores(ranks[:, sorted((i, j), reverse=True)], measure, order)
        if measure == "rho_abs":
            assert swapped[0, 1] == entry
        else:
            assert abs(swapped[0, 1] - entry) <= 1e-14

"""Lattice estimators: pointwise values, grids, masses, and their axioms."""
import time

import numpy as np
import pytest

from coptree import (
    CopulaGrid,
    RankMatrix,
    column_ranks,
    copula_cdf_grid,
    copula_mass_grid,
    default_lattice_order,
    empirical_copula,
)
from coptree import empirical
from oracles import assert_valid_grids, difference_binning_cases, literal_cdf_counts


def ranks_of(*columns):
    return RankMatrix(ranks=np.column_stack([np.asarray(c) for c in columns]))


COMONOTONE_2 = ranks_of([1, 2], [1, 2])
COUNTERMONOTONE_2 = ranks_of([1, 2], [2, 1])
EXAMPLE_3 = ranks_of([1, 2, 3], [1, 3, 2])


class TestEmptyRanks:
    """A rank matrix with no column or no row is refused where it is built,
    before a grid or a copula value divides by T or counts no cells."""

    @pytest.mark.parametrize("grid", [copula_cdf_grid, copula_mass_grid])
    def test_no_column_refused_before_the_grid(self, grid):
        with pytest.raises(ValueError,
                           match=r"^ranks must be 2-D and non-empty, got shape \(3, 0\)$"):
            grid(RankMatrix(np.ones((3, 0), dtype=np.int64)), 2)

    def test_no_row_refused_before_the_copula_value(self):
        with pytest.raises(ValueError,
                           match=r"^ranks must be 2-D and non-empty, got shape \(0, 2\)$"):
            empirical_copula(RankMatrix(np.empty((0, 2), dtype=np.int64)), [0.5, 0.5])


class TestDefaultLatticeOrder:
    @pytest.mark.parametrize(
        "samples,expected",
        [(2, 2), (40, 2), (100, 2), (506, 5), (1000, 7), (2000, 10), (4177, 14)],
    )
    def test_values(self, samples, expected):
        assert default_lattice_order(samples) == expected

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            default_lattice_order(1)


class TestPointEvaluation:
    def test_grounded(self):
        assert empirical_copula(EXAMPLE_3, (0.0, 0.7)) == 0.0

    def test_top_corner(self):
        assert empirical_copula(EXAMPLE_3, (1.0, 1.0)) == 1.0

    def test_hand_enumerated_point(self):
        # only the first sample has both ranks <= 2
        assert empirical_copula(EXAMPLE_3, (2 / 3, 2 / 3)) == pytest.approx(1 / 3)

    def test_outside_unit_cube(self):
        with pytest.raises(ValueError, match="unit hypercube"):
            empirical_copula(EXAMPLE_3, (0.5, 1.5))
        with pytest.raises(ValueError, match="unit hypercube"):
            empirical_copula(EXAMPLE_3, (-0.1, 0.5))

    def test_nan_coordinate_rejected(self):
        for u in [(np.nan, 0.5), (0.5, np.nan)]:
            with pytest.raises(ValueError, match="unit hypercube"):
                empirical_copula(EXAMPLE_3, u)

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            empirical_copula(EXAMPLE_3, (0.5, 0.5, 0.5))

    def test_matches_literal_counting(self):
        rng = np.random.default_rng(0)
        ranks = ranks_of(rng.permutation(9) + 1, rng.permutation(9) + 1)
        counts = literal_cdf_counts(ranks.ranks, 9)
        for t1 in range(10):
            for t2 in range(10):
                assert empirical_copula(ranks, (t1 / 9, t2 / 9)) == counts[t1, t2] / 9


class TestCdfGrid:
    def test_comonotone_pair(self):
        grid = copula_cdf_grid(COMONOTONE_2, 2)
        assert grid.values[1, 1] == 0.5
        assert grid.values[2, 2] == 1.0

    def test_countermonotone_pair(self):
        grid = copula_cdf_grid(COUNTERMONOTONE_2, 2)
        assert grid.values[1, 1] == 0.0

    def test_degenerate_lattice(self):
        grid = copula_cdf_grid(EXAMPLE_3, 1)
        assert grid.values[0, 0] == 0.0
        assert grid.values[0, 1] == 0.0
        assert grid.values[1, 0] == 0.0
        assert grid.values[1, 1] == 1.0

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 7, 11, 12])
    def test_grid_equals_pointwise_evaluation(self, order):
        rng = np.random.default_rng(1)
        t = 12
        ranks = ranks_of(rng.permutation(t) + 1, rng.permutation(t) + 1)
        grid = copula_cdf_grid(ranks, order)
        for t1 in range(order + 1):
            for t2 in range(order + 1):
                assert grid.values[t1, t2] == empirical_copula(
                    ranks, (t1 / order, t2 / order)
                )

    def test_full_order_margin(self):
        # at K = T with no ties the one-margin slice is t/T
        rng = np.random.default_rng(2)
        t = 8
        ranks = ranks_of(rng.permutation(t) + 1, rng.permutation(t) + 1)
        grid = copula_cdf_grid(ranks, t)
        assert np.allclose(grid.values[:, t], np.arange(t + 1) / t)
        assert np.allclose(grid.values[t, :], np.arange(t + 1) / t)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError, match="lattice order"):
            copula_cdf_grid(EXAMPLE_3, 0)
        with pytest.raises(ValueError, match="lattice order"):
            copula_cdf_grid(EXAMPLE_3, 4)

    @pytest.mark.parametrize("grid", [copula_cdf_grid, copula_mass_grid])
    @pytest.mark.parametrize("order", [2.5, 2.0, True, False, "2", None])
    def test_order_must_be_an_integer(self, grid, order):
        with pytest.raises(ValueError, match="lattice order"):
            grid(EXAMPLE_3, order)

    def test_cell_guard(self):
        rng = np.random.default_rng(3)
        cols = [rng.permutation(1000) + 1 for _ in range(3)]
        ranks = RankMatrix(np.column_stack(cols))
        with pytest.raises(ValueError, match="cells"):
            copula_cdf_grid(ranks, 1000)

    @pytest.mark.parametrize("grid", [copula_cdf_grid, copula_mass_grid])
    def test_cell_budget(self, grid, monkeypatch):
        monkeypatch.setattr(empirical, "_MAX_CELLS", 8)
        with pytest.raises(ValueError,
                           match="lattice order 3 in dimension 2 needs 9 cells, more than 8"):
            grid(EXAMPLE_3, 3)
        assert grid(EXAMPLE_3, 2).order == 2


class TestMassGrid:
    def test_comonotone_four_samples(self):
        ranks = ranks_of([1, 2, 3, 4], [1, 2, 3, 4])
        grid = copula_mass_grid(ranks, 2)
        assert grid.values.tolist() == [[0.5, 0.0], [0.0, 0.5]]

    def test_one_sample_per_cell(self):
        ranks = ranks_of([1, 2, 3, 4], [1, 3, 2, 4])
        grid = copula_mass_grid(ranks, 2)
        assert grid.values.tolist() == [[0.25, 0.25], [0.25, 0.25]]

    def test_single_cell(self):
        grid = copula_mass_grid(EXAMPLE_3, 1)
        assert grid.values.tolist() == [[1.0]]

    def test_uniform_margins_when_order_divides_samples(self):
        rng = np.random.default_rng(4)
        t, order = 60, 5
        ranks = ranks_of(rng.permutation(t) + 1, rng.permutation(t) + 1)
        grid = copula_mass_grid(ranks, order)
        assert np.all(grid.values.sum(axis=0) == 1 / order)
        assert np.all(grid.values.sum(axis=1) == 1 / order)

    def test_difference_equals_binning_small_sweep(self):
        rng = np.random.default_rng(5)
        checked = difference_binning_cases(
            copula_mass_grid,
            RankMatrix,
            dims=(2, 3),
            max_samples=6,
            rng=rng,
            random_per_config=3,
        )
        assert checked > 50


class TestJointCounts:
    """``_joint_counts`` is the one cell-count kernel of the package."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("size", [1, 2, 7, 25])
    @pytest.mark.parametrize("samples", [1, 3, 50])
    def test_matches_per_row_bincount(self, rows, size, samples):
        rng = np.random.default_rng(rows * 1000 + size * 10 + samples)
        flat = rng.integers(0, size, size=(rows, samples))
        expected = np.stack([np.bincount(row, minlength=size) for row in flat])
        counts = empirical._joint_counts(flat.copy(), size)
        assert counts.shape == (rows, size)
        assert np.array_equal(counts, expected)

    def test_lattice_rules_are_shared(self):
        # the MI measures resolve lattice orders and margins with the same
        # functions as the grids, and the CLI takes its ranks and lattice
        # order from learn's one rank step, with no lattice-order rule of
        # its own
        from coptree import cli, measures

        for name in ("_lattice_order", "_margins", "_cell_indices", "_joint_counts"):
            assert getattr(measures, name) is getattr(empirical, name)
        assert cli._learn_ranks is measures._learn_ranks
        assert [name for name in vars(cli) if "lattice_order" in name] == []


class TestGridProperties:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_axioms_on_random_ranks(self, dim):
        rng = np.random.default_rng(6)
        for _ in range(60):
            t = int(rng.integers(2, 25))
            order = int(rng.integers(1, t + 1))
            cols = [rng.permutation(t) + 1 for _ in range(dim)]
            ranks = RankMatrix(np.column_stack(cols))
            assert_valid_grids(
                copula_cdf_grid(ranks, order), copula_mass_grid(ranks, order)
            )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        values = np.round(rng.standard_normal((30, 2)), 1)
        base = RankMatrix(column_ranks(values))
        moved = RankMatrix(column_ranks(np.exp(values)))
        for order in (1, 3, 7, 30):
            assert np.array_equal(
                copula_cdf_grid(base, order).values,
                copula_cdf_grid(moved, order).values,
            )
            assert np.array_equal(
                copula_mass_grid(base, order).values,
                copula_mass_grid(moved, order).values,
            )

    def test_grid_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            CopulaGrid(order=2, dim=2, kind="density", values=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            CopulaGrid(order=2, dim=2, kind="mass", values=np.zeros((3, 3)))

    @pytest.mark.parametrize("field, value", [
        ("order", -1), ("order", 0), ("order", 2.0), ("order", True), ("order", "2"),
        ("dim", 0), ("dim", 1.0), ("dim", None),
    ])
    def test_grid_order_and_dim_must_be_integers_of_at_least_1(self, field, value):
        fields = {"order": 2, "dim": 1, "kind": "mass", "values": np.zeros(2), field: value}
        with pytest.raises(ValueError, match=f"^grid {field} must be "):
            CopulaGrid(**fields)

    def test_grid_fields_stored_as_int_and_float_array(self):
        grid = CopulaGrid(np.int64(2), np.int64(1), "mass", [1, 0])
        assert type(grid.order) is int and type(grid.dim) is int
        assert grid.values.dtype == np.float64 and grid.values.tolist() == [1.0, 0.0]
        # a package grid is float64 already, so it is stored as it is
        built = copula_mass_grid(EXAMPLE_3, 3)
        assert CopulaGrid(3, 2, "mass", built.values).values is built.values


class TestScaling:
    def test_large_inputs_stay_fast(self):
        # one pass over samples: 200k x 4 evaluation and a 100k-sample
        # bivariate mass grid should take well under a second each
        rng = np.random.default_rng(8)
        t = 200_000
        ranks = RankMatrix(np.column_stack([rng.permutation(t) + 1 for _ in range(4)]))
        start = time.perf_counter()
        empirical_copula(ranks, (0.3, 0.5, 0.7, 0.9))
        eval_elapsed = time.perf_counter() - start

        t2 = 100_000
        pair = RankMatrix(np.column_stack([rng.permutation(t2) + 1 for _ in range(2)]))
        start = time.perf_counter()
        copula_mass_grid(pair, 300)
        mass_elapsed = time.perf_counter() - start
        assert eval_elapsed < 2.0
        assert mass_elapsed < 2.0

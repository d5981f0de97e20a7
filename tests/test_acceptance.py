"""End-to-end acceptance checks.

Each test prints one ``[acceptance] <criterion>: PASS/FAIL`` line (visible
with ``pytest -s``).  The abalone-dependent checks skip when
data/abalone.csv has not been fetched.  Criterion 7's independence-MI
bound at lattice order 31 is asserted exactly as stated even though the
plug-in estimator's bias makes it unreachable; see the failure message.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest

import coptree as ct
from oracles import (
    assert_valid_grids,
    best_tree_weight,
    connected,
    difference_binning_cases,
    gaussian_spearman,
    naive_spearman,
)


@contextmanager
def report(label):
    try:
        yield
    except Exception:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def test_criterion_1_synthetic_block_recovery(synthetic_spec):
    with report("1 synthetic 5-variable block recovery (100 seeds)"):
        start = time.perf_counter()
        gaussians = {"G1", "G2", "G3"}
        recovered = 0
        for seed in range(100):
            data = ct.generate_synthetic(synthetic_spec, seed=seed)
            tree = ct.learn_structure(data, "mi_cell")
            pairs = tree.edge_pairs()
            cross = [
                p for p in pairs if (p[0] in gaussians) != (p[1] in gaussians)
            ]
            if (
                connected(pairs, gaussians)
                and ("Ce", "Cn") in pairs
                and len(cross) == 1
            ):
                recovered += 1
        elapsed = time.perf_counter() - start
        assert recovered >= 95, f"recovered {recovered}/100"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_housing_stable_edges(housing):
    with report("2 housing tree keeps (crim, rad) and (medv, lstat)"):
        start = time.perf_counter()
        tree = ct.learn_structure(housing, "mi_cell")
        elapsed = time.perf_counter() - start
        pairs = tree.edge_pairs()
        assert ("crim", "rad") in pairs, sorted(pairs)
        assert ("lstat", "medv") in pairs, sorted(pairs)
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_3_abalone_backbone(abalone):
    with report("3 abalone physical backbone with sex/rings leaves"):
        start = time.perf_counter()
        tree = ct.learn_structure(abalone, "mi_cell")
        elapsed = time.perf_counter() - start
        physical = {
            "length",
            "diameter",
            "height",
            "whole_weight",
            "shucked_weight",
            "viscera_weight",
            "shell_weight",
        }
        assert connected(tree.edge_pairs(), physical)
        degrees = tree.degrees()
        assert degrees["sex"] == 1, degrees
        assert degrees["rings"] == 1, degrees
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_4_housing_coverage_ratio(housing):
    with report("4a housing coverage ratio beats the uniform baseline"):
        tree = ct.learn_structure(housing, "mi_cell")
        n = housing.dim
        baseline = (n - 1) / (n * (n - 1) / 2)
        assert 0.25 < tree.coverage_ratio < 1.0, tree.coverage_ratio
        assert tree.coverage_ratio > baseline


def test_criterion_4_abalone_coverage_ratio(abalone):
    with report("4b abalone coverage ratio beats the uniform baseline"):
        tree = ct.learn_structure(abalone, "mi_cell")
        n = abalone.dim
        baseline = (n - 1) / (n * (n - 1) / 2)
        assert 0.25 < tree.coverage_ratio < 1.0, tree.coverage_ratio
        assert tree.coverage_ratio > baseline


def test_criterion_5a_spearman_fast_vs_naive():
    with report("5a fast rho equals the naive lattice double sum"):
        rng = np.random.default_rng(50)
        for t in (2, 3, 5, 8, 13, 21, 55, 89, 144, 200):
            for _ in range(3):
                rx = rng.permutation(t) + 1
                ry = rng.permutation(t) + 1
                gap = abs(ct.spearman_rho(rx, ry) - naive_spearman(rx, ry))
                assert gap < 1e-10, (t, gap)


def test_criterion_5b_differencing_vs_binning():
    with report("5b CDF differencing equals direct binning (N in {2,3}, T <= 8)"):
        rng = np.random.default_rng(51)
        checked = difference_binning_cases(
            ct.copula_mass_grid,
            ct.RankMatrix,
            dims=(2, 3),
            max_samples=8,
            rng=rng,
            random_per_config=10,
            exhaustive_max_t=6,
        )
        assert checked > 5000, checked


def test_criterion_5c_mst_vs_enumeration():
    with report("5c spanning tree is optimal against full enumeration"):
        rng = np.random.default_rng(52)
        for case in range(100):
            n = 2 + case % 5  # cycles through 2..6
            names = tuple(f"v{i}" for i in range(n))
            values = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    values[i, j] = values[j, i] = rng.random()
            w = ct.WeightMatrix(names=names, measure="mi_cell", lattice_order=2, signed=values)
            tree = ct.maximum_spanning_tree(w)
            assert tree.total_weight() == pytest.approx(best_tree_weight(values))


def test_criterion_6_invariance_and_outliers(housing, synthetic_spec):
    with report("6 exact monotone-transform invariance and outlier bound"):
        transforms = (
            lambda v: np.exp((v - v.mean(axis=0)) / (v.std(axis=0) + 1e-12)),
            lambda v: v**3,
            lambda v: 2.0 * v + 5.0,
        )
        datasets = [
            housing,
            ct.generate_synthetic(synthetic_spec, seed=0),
        ]
        for data in datasets:
            for measure in ("rho_abs", "mi_cell"):
                base_w = ct.weight_matrix(data, measure)
                base_tree = ct.learn_structure(data, measure)
                for transform in transforms:
                    moved = ct.Dataset(
                        columns=data.columns, values=transform(data.values)
                    )
                    w = ct.weight_matrix(moved, measure)
                    assert np.array_equal(base_w.values, w.values)
                    assert np.array_equal(base_w.signed, w.signed)
                    assert ct.learn_structure(moved, measure) == base_tree
        # one wild outlier among 1000 samples barely moves rho
        rng = np.random.default_rng(60)
        values = rng.standard_normal((1000, 2))
        values[:, 1] = 0.7 * values[:, 0] + 0.3 * values[:, 1]
        ranks = ct.column_ranks(values)
        before = ct.spearman_rho(ranks[:, 0], ranks[:, 1])
        values_out = values.copy()
        values_out[500] = [1e6, 1e6]
        ranks_out = ct.column_ranks(values_out)
        after = ct.spearman_rho(ranks_out[:, 0], ranks_out[:, 1])
        assert abs(after - before) < 0.02


def test_criterion_7a_gaussian_copula_rho_convergence():
    with report("7a empirical rho matches the Gaussian closed form"):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        target = gaussian_spearman(0.5)
        assert target == pytest.approx(0.4826, abs=5e-4)
        for seed in range(20):
            uniforms = ct.sample_gaussian_copula(sigma, 5000, seed)
            ranks = ct.column_ranks(uniforms)
            rho = ct.spearman_rho(ranks[:, 0], ranks[:, 1])
            assert abs(rho - target) < 0.05, (seed, rho)


def test_criterion_7b_independence_mi_below_007_at_order_31():
    with report("7b independent-data MI < 0.07 at lattice order 31"):
        values = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ranks = ct.column_ranks(rng.random((1000, 2)))
            values.append(ct.mutual_info_cell(ranks[:, 0], ranks[:, 1], 31))
        at_default = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ranks = ct.column_ranks(rng.random((1000, 2)))
            at_default.append(
                ct.mutual_info_cell(
                    ranks[:, 0], ranks[:, 1], ct.default_lattice_order(1000)
                )
            )
        assert max(values) < 0.07, (
            f"unreachable for the plug-in estimator: measured "
            f"{min(values):.3f}..{max(values):.3f} nats at K=31, T=1000, "
            f"consistent with the (K-1)^2/(2T) = 0.45 independence bias of "
            f"the lattice plug-in; at the default lattice order "
            f"(K={ct.default_lattice_order(1000)}) the same 20 seeds give "
            f"{min(at_default):.3f}..{max(at_default):.3f}"
        )


def test_criterion_8_grid_validity_properties():
    with report("8 lattice grid axioms on 1000 random datasets"):
        rng = np.random.default_rng(80)
        for case in range(1000):
            n = int(rng.integers(2, 5))
            t = int(rng.integers(2, 41))
            order = int(rng.integers(1, t + 1))
            if case % 3 == 0:
                # integer-valued data: plenty of ties
                values = rng.integers(0, max(2, t // 3), size=(t, n)).astype(float)
            else:
                values = rng.standard_normal((t, n))
            tie_break = "random" if case % 2 else "stable"
            ranks = ct.RankMatrix(ct.column_ranks(values, tie_break, case))
            assert_valid_grids(
                ct.copula_cdf_grid(ranks, order),
                ct.copula_mass_grid(ranks, order),
            )

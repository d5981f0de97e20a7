"""Copula densities, the Gaussian-copula sampler, and synthetic specs."""
import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from coptree import (
    CopulaBlock,
    MarginSpec,
    MixtureCopulaDensity,
    PairCopula,
    ProductCopulaDensity,
    SyntheticSpec,
    block_correlation,
    column_ranks,
    generate_synthetic,
    load_synthetic_spec,
    mixture_density,
    pair_copula_density,
    product_density,
    push_margins,
    sample_gaussian_copula,
    spearman_rho,
)
from oracles import gaussian_spearman

GAUSS_HALF_AT_CENTER = 1.0 / np.sqrt(0.75)  # z = 0 kills the exponent


class TestPairCopula:
    def test_zero_theta_is_independence(self):
        copula = PairCopula("gaussian", 0.0)
        for u, v in [(0.1, 0.9), (0.5, 0.5), (0.33, 0.77)]:
            assert copula.density(u, v) == pytest.approx(1.0)

    def test_independence_density(self):
        assert PairCopula("independence").density(0.3, 0.9) == 1.0

    def test_gaussian_at_center(self):
        value = PairCopula("gaussian", 0.5).density(0.5, 0.5)
        assert value == pytest.approx(GAUSS_HALF_AT_CENTER, abs=1e-12)

    def test_boundary_rejected(self):
        copula = PairCopula("gaussian", 0.5)
        for u, v in [(0.0, 0.5), (0.5, 1.0), (1.0, 0.0)]:
            with pytest.raises(ValueError, match="strictly inside"):
                copula.density(u, v)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="theta"):
            PairCopula("gaussian", 1.0)
        with pytest.raises(ValueError, match="theta"):
            PairCopula("gaussian")
        with pytest.raises(ValueError, match="no parameter"):
            PairCopula("independence", 0.5)
        with pytest.raises(ValueError, match="family"):
            PairCopula("clayton", 0.5)

    def test_module_level_alias(self):
        copula = PairCopula("gaussian", -0.4)
        assert pair_copula_density(copula, 0.2, 0.7) == copula.density(0.2, 0.7)


class TestMixture:
    def test_single_component_identity(self):
        copula = PairCopula("gaussian", 0.5)
        mix = MixtureCopulaDensity(
            components=(lambda u: copula.density(u[0], u[1]),), weights=(1.0,)
        )
        point = np.array([0.3, 0.8])
        assert mix.density(point) == pytest.approx(copula.density(0.3, 0.8))

    def test_convex_combination_of_ones(self):
        mix = MixtureCopulaDensity(
            components=(lambda u: 1.0, lambda u: 1.0), weights=(0.3, 0.7)
        )
        assert mix.density(np.array([0.1, 0.4])) == pytest.approx(1.0)

    def test_half_gaussian_half_independence(self):
        copula = PairCopula("gaussian", 0.5)
        mix = MixtureCopulaDensity(
            components=(lambda u: copula.density(u[0], u[1]), lambda u: 1.0),
            weights=(0.5, 0.5),
        )
        expected = (GAUSS_HALF_AT_CENTER + 1.0) / 2.0
        assert mix.density(np.array([0.5, 0.5])) == pytest.approx(expected)
        assert mixture_density(mix, np.array([0.5, 0.5])) == pytest.approx(expected)

    def test_linear_in_weights(self):
        gauss = PairCopula("gaussian", 0.6)
        part = lambda u: gauss.density(u[0], u[1])  # noqa: E731
        rng = np.random.default_rng(30)
        for w in (0.0, 0.25, 0.5, 0.9, 1.0):
            mix = MixtureCopulaDensity(components=(part, lambda u: 1.0),
                                       weights=(w, 1.0 - w))
            point = rng.uniform(0.05, 0.95, size=2)
            expected = w * part(point) + (1.0 - w) * 1.0
            assert mix.density(point) == pytest.approx(expected, rel=1e-12)

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MixtureCopulaDensity(components=(lambda u: 1.0,), weights=(0.9,))
        with pytest.raises(ValueError, match="nonnegative"):
            MixtureCopulaDensity(
                components=(lambda u: 1.0, lambda u: 1.0), weights=(1.5, -0.5)
            )
        with pytest.raises(ValueError, match="at least one"):
            MixtureCopulaDensity(components=(), weights=())


class TestProduct:
    def test_all_independence_blocks(self):
        product = ProductCopulaDensity(
            dim=4, blocks=(((0, 1), lambda u: 1.0), ((2, 3), lambda u: 1.0))
        )
        assert product.density(np.array([0.1, 0.2, 0.3, 0.4])) == 1.0

    def test_single_block_identity(self):
        copula = PairCopula("gaussian", 0.5)
        product = ProductCopulaDensity(dim=2, blocks=(((0, 1), copula.block_density),))
        assert product.density(np.array([0.5, 0.5])) == pytest.approx(
            GAUSS_HALF_AT_CENTER
        )

    def test_two_block_example(self):
        gauss = PairCopula("gaussian", 0.5)
        product = ProductCopulaDensity(
            dim=4,
            blocks=(((0, 1), gauss.block_density), ((2, 3), lambda u: 1.0)),
        )
        value = product.density(np.array([0.5, 0.5, 0.2, 0.8]))
        assert value == pytest.approx(GAUSS_HALF_AT_CENTER)
        assert product_density(product, np.array([0.5, 0.5, 0.2, 0.8])) == value

    def test_partition_validation(self):
        with pytest.raises(ValueError, match="partition"):
            ProductCopulaDensity(dim=3, blocks=(((0, 1), lambda u: 1.0),))
        with pytest.raises(ValueError, match="partition"):
            ProductCopulaDensity(
                dim=3, blocks=(((0, 1), lambda u: 1.0), ((1, 2), lambda u: 1.0))
            )


class TestNormalization:
    @pytest.mark.parametrize("theta", [0.0, 0.5, 0.8, -0.8])
    def test_gaussian_density_integrates_to_one(self, theta):
        copula = PairCopula("gaussian", theta)
        centers = (np.arange(64) + 0.5) / 64
        uu, vv = np.meshgrid(centers, centers)
        integral = np.sum(copula.density(uu.ravel(), vv.ravel())) / 64**2
        assert abs(integral - 1.0) < 1e-2

    def test_mixture_integrates_to_one(self):
        gauss = PairCopula("gaussian", 0.5)
        mix = MixtureCopulaDensity(
            components=(lambda u: gauss.density(u[0], u[1]), lambda u: 1.0),
            weights=(0.5, 0.5),
        )
        centers = (np.arange(64) + 0.5) / 64
        total = sum(mix.density(np.array([u, v])) for u in centers for v in centers)
        assert abs(total / 64**2 - 1.0) < 1e-2


class TestNormalRoundTrip:
    def test_quantile_cdf_round_trip(self):
        # The upper tail cannot round-trip below ~9e-9 in doubles: Phi(6)
        # sits eps/2 from its neighbour and eps/(2*phi(6)) ~ 9.1e-9, for
        # any CDF implementation.  Sub-1e-9 accuracy therefore holds on
        # the full range through the lower tail (where the CDF value
        # keeps full relative precision), and for the plain round trip
        # away from the representation cliff.
        x = np.linspace(-6.0, 6.0, 241)
        lower = np.where(x <= 0.0, x, -x)
        assert np.max(np.abs(ndtri(ndtr(lower)) - lower)) < 1e-9
        plain = x[np.abs(x) <= 5.5]
        assert np.max(np.abs(ndtri(ndtr(plain)) - plain)) < 1e-9
        assert np.max(np.abs(ndtri(ndtr(x)) - x)) < 1e-8


class TestSampler:
    def test_deterministic_per_seed(self):
        sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
        first = sample_gaussian_copula(sigma, 64, seed=123)
        second = sample_gaussian_copula(sigma, 64, seed=123)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, sample_gaussian_copula(sigma, 64, seed=124))

    def test_output_in_open_unit_interval(self):
        uniforms = sample_gaussian_copula(np.eye(3), 1000, seed=0)
        assert uniforms.shape == (1000, 3)
        assert np.all(uniforms > 0.0) and np.all(uniforms < 1.0)

    def test_identity_sigma_gives_independent_columns(self):
        # measured over these 20 seeds: max |rho| = 0.068
        sigma = np.eye(2)
        for seed in range(20):
            uniforms = sample_gaussian_copula(sigma, 1000, seed)
            ranks = column_ranks(uniforms)
            assert abs(spearman_rho(ranks[:, 0], ranks[:, 1])) < 0.1

    def test_near_comonotone_sigma(self):
        sigma = np.array([[1.0, 0.999], [0.999, 1.0]])
        for seed in range(5):
            uniforms = sample_gaussian_copula(sigma, 1000, seed)
            ranks = column_ranks(uniforms)
            assert spearman_rho(ranks[:, 0], ranks[:, 1]) > 0.95

    def test_empirical_rho_converges_to_closed_form(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        target = gaussian_spearman(0.5)
        assert target == pytest.approx(0.4826, abs=5e-4)
        for seed in range(5):
            uniforms = sample_gaussian_copula(sigma, 5000, seed)
            ranks = column_ranks(uniforms)
            assert abs(spearman_rho(ranks[:, 0], ranks[:, 1]) - target) < 0.05

    def test_sigma_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            sample_gaussian_copula(np.array([[1.0, 0.2], [0.4, 1.0]]), 10, 0)
        with pytest.raises(ValueError, match="unit diagonal"):
            sample_gaussian_copula(np.array([[2.0, 0.0], [0.0, 1.0]]), 10, 0)
        bad = np.array(
            [[1.0, -0.9, -0.9], [-0.9, 1.0, -0.9], [-0.9, -0.9, 1.0]]
        )
        with pytest.raises(ValueError, match="Cholesky"):
            sample_gaussian_copula(bad, 10, 0)


class TestPushMargins:
    def test_standard_normal_median(self):
        data = push_margins(
            np.array([[0.5, 0.5], [0.25, 0.75]]),
            [MarginSpec("standard_normal"), MarginSpec("standard_normal")],
        )
        assert data.values[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_exponential_quantile(self):
        u = 1.0 - np.exp(-1.0)
        data = push_margins(
            np.array([[u, 0.5], [0.5, u]]),
            [MarginSpec("exponential", 1.0), MarginSpec("exponential", 2.0)],
        )
        assert data.values[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert data.values[1, 1] == pytest.approx(0.5, rel=1e-12)

    def test_monotone_invariance_of_ranks(self):
        uniforms = sample_gaussian_copula(np.eye(2), 200, seed=9)
        data = push_margins(
            uniforms, [MarginSpec("standard_normal"), MarginSpec("exponential", 1.0)]
        )
        assert np.array_equal(column_ranks(uniforms), column_ranks(data.values))

    def test_boundary_rejected(self):
        with pytest.raises(ValueError, match="strictly inside"):
            push_margins(
                np.array([[0.0, 0.5], [0.5, 0.5]]),
                [MarginSpec("standard_normal"), MarginSpec("standard_normal")],
            )

    def test_margin_validation(self):
        with pytest.raises(ValueError, match="rate"):
            MarginSpec("exponential")
        with pytest.raises(ValueError, match="rate"):
            MarginSpec("exponential", -1.0)
        with pytest.raises(ValueError, match="no rate"):
            MarginSpec("standard_normal", 1.0)
        with pytest.raises(ValueError, match="family"):
            MarginSpec("uniform")


class TestSyntheticSpec:
    def test_load_and_generate(self, synthetic_spec):
        assert synthetic_spec.dim == 5
        assert synthetic_spec.names == ("G1", "G2", "G3", "Cn", "Ce")
        sigma = block_correlation(synthetic_spec)
        assert sigma[0, 1] == sigma[1, 2] == sigma[3, 4] == 0.8
        assert sigma[0, 3] == 0.0
        data = generate_synthetic(synthetic_spec)
        assert data.sample_count == 1000 and data.dim == 5
        again = generate_synthetic(synthetic_spec)
        assert np.array_equal(data.values, again.values)
        other = generate_synthetic(synthetic_spec, seed=1)
        assert not np.array_equal(data.values, other.values)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            generate_synthetic(synthetic_spec, seed=-1)

    def test_exponential_margin_is_positive(self, synthetic_spec):
        data = generate_synthetic(synthetic_spec)
        assert np.all(data.column("Ce") > 0.0)

    def test_partition_enforced(self):
        with pytest.raises(ValueError, match="partition"):
            SyntheticSpec(
                blocks=(CopulaBlock((1, 2), "gaussian", 0.5),),
                margins=(
                    MarginSpec("standard_normal"),
                    MarginSpec("standard_normal"),
                    MarginSpec("standard_normal"),
                ),
                samples=100,
                seed=0,
            )

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing key"):
            load_synthetic_spec({"blocks": [], "margins": [], "samples": 10})

    def test_spec_from_dict(self):
        spec = load_synthetic_spec(
            {
                "blocks": [{"vars": [1, 2], "family": "independence"}],
                "margins": [{"family": "standard_normal"}] * 2,
                "samples": 50,
                "seed": 3,
            }
        )
        data = generate_synthetic(spec)
        assert data.columns == ("x1", "x2")

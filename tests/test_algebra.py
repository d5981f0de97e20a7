"""Copula densities, the Gaussian-copula sampler, and synthetic specs."""
import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from coptree import (
    CopulaBlock,
    MarginSpec,
    PairCopula,
    SyntheticSpec,
    block_correlation,
    column_ranks,
    generate_synthetic,
    load_synthetic_spec,
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

    def test_nan_rejected(self):
        copula = PairCopula("gaussian", 0.5)
        for u, v in [(np.nan, 0.5), (0.5, np.nan), ([0.5, np.nan], [0.5, 0.5])]:
            with pytest.raises(ValueError, match="strictly inside"):
                copula.density(u, v)
        with pytest.raises(ValueError, match="strictly inside"):
            MarginSpec("standard_normal").quantile(np.nan)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="theta"):
            PairCopula("gaussian", 1.0)
        with pytest.raises(ValueError, match="theta"):
            PairCopula("gaussian")
        with pytest.raises(ValueError, match=r"theta must be in \(-1, 1\), got x"):
            PairCopula("gaussian", "x")
        with pytest.raises(ValueError, match="no parameter"):
            PairCopula("independence", 0.5)
        with pytest.raises(ValueError, match="family"):
            PairCopula("clayton", 0.5)


class TestNormalization:
    @pytest.mark.parametrize("theta", [0.0, 0.5, 0.8, -0.8])
    def test_gaussian_density_integrates_to_one(self, theta):
        copula = PairCopula("gaussian", theta)
        centers = (np.arange(64) + 0.5) / 64
        uu, vv = np.meshgrid(centers, centers)
        integral = np.sum(copula.density(uu.ravel(), vv.ravel())) / 64**2
        assert abs(integral - 1.0) < 1e-2


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, bad):
        # NaN and inf pass the symmetry and diagonal comparisons, and
        # Cholesky does not raise on NaN
        for sigma in ([[1.0, bad], [bad, 1.0]], [[bad, 0.0], [0.0, 1.0]]):
            with pytest.raises(ValueError, match="sigma must be finite"):
                sample_gaussian_copula(sigma, 5, 0)


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

    @pytest.mark.parametrize("change, message", [
        pytest.param({"blocks": [{"family": "independence"}]},
                     r"blocks\[0\] is missing key 'vars'", id="block-no-vars"),
        pytest.param({"blocks": [5]},
                     r"blocks\[0\] must be a JSON object", id="block-not-object"),
        pytest.param({"blocks": [{"vars": 5, "family": "independence"}]},
                     r"blocks\[0\]\.vars must be a list", id="vars-not-list"),
        pytest.param({"blocks": [{"vars": [1, 2.5], "family": "independence"}]},
                     "vars must be an integer, got 2.5", id="vars-fraction"),
        pytest.param({"blocks": [{"vars": [1, 2], "family": "gaussian", "theta": "x"}]},
                     "theta must be in", id="theta-string"),
        pytest.param({"blocks": 5}, "blocks must be a list", id="blocks-not-list"),
        pytest.param({"margins": [{"family": "standard_normal"}, {"rate": 1.0}]},
                     r"margins\[1\] is missing key 'family'", id="margin-no-family"),
        pytest.param({"margins": [{"family": "standard_normal"},
                                  {"family": "exponential", "rate": "x"}]},
                     "rate must be > 0", id="rate-string"),
        # json.load reads Infinity and NaN; an infinite rate makes every draw 0.0
        pytest.param({"margins": [{"family": "standard_normal"},
                                  {"family": "exponential", "rate": float("inf")}]},
                     "rate must be > 0 and finite, got inf", id="rate-infinite"),
        pytest.param({"margins": [{"family": "standard_normal"},
                                  {"family": "exponential", "rate": float("nan")}]},
                     "rate must be > 0 and finite, got nan", id="rate-nan"),
        pytest.param({"names": 5}, "names must be a list", id="names-not-list"),
        pytest.param({"samples": 10.9}, "samples must be an integer, got 10.9",
                     id="samples-fraction"),
        pytest.param({"samples": "10"}, "samples must be an integer",
                     id="samples-string"),
        pytest.param({"seed": 10.9}, "seed must be an integer, got 10.9",
                     id="seed-fraction"),
        pytest.param({"seed": True}, "seed must be an integer", id="seed-bool"),
    ])
    def test_malformed_spec_names_the_field(self, change, message):
        raw = {
            "blocks": [{"vars": [1, 2], "family": "gaussian", "theta": 0.5}],
            "margins": [{"family": "standard_normal"}] * 2,
            "samples": 10,
            "seed": 0,
        }
        with pytest.raises(ValueError, match=message):
            load_synthetic_spec({**raw, **change})

    def test_integral_floats_accepted(self):
        spec = load_synthetic_spec({
            "blocks": [{"vars": [1.0, 2.0], "family": "independence"}],
            "margins": [{"family": "standard_normal"}] * 2,
            "samples": 10.0,
            "seed": 3.0,
        })
        values = (*spec.blocks[0].variables, spec.samples, spec.seed)
        assert values == (1, 2, 10, 3)
        assert all(type(v) is int for v in values)

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

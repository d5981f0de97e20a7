"""Evaluable copula densities and a seeded Gaussian-copula sampler.

Two closed-form pair copulas (independence and Gaussian) plus two
composition rules: convex mixtures of densities over the same variables,
and products of densities over disjoint variable blocks.  The sampler
draws correlated uniforms via a Cholesky factor and the standard normal
CDF, and ``push_margins`` maps them through inverse marginal CDFs to build
synthetic datasets.

scipy is imported only inside the three functions that need the normal
CDF or quantile (``PairCopula.density``, ``MarginSpec.quantile`` and
``sample_gaussian_copula``), so importing coptree, ``learn`` and
``measure`` never load it; ``synth`` does.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset

__all__ = [
    "PairCopula",
    "MixtureCopulaDensity",
    "ProductCopulaDensity",
    "MarginSpec",
    "CopulaBlock",
    "SyntheticSpec",
    "pair_copula_density",
    "mixture_density",
    "product_density",
    "sample_gaussian_copula",
    "push_margins",
    "load_synthetic_spec",
    "block_correlation",
    "generate_synthetic",
]

PAIR_FAMILIES = ("independence", "gaussian")
MARGIN_FAMILIES = ("standard_normal", "exponential")


def _check_open_unit(u, name: str):
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError(f"{name} must lie strictly inside (0, 1)")
    return u


@dataclass(frozen=True)
class PairCopula:
    """A bivariate copula: independence, or Gaussian with theta in (-1, 1)."""

    family: str
    theta: float | None = None

    def __post_init__(self):
        if self.family not in PAIR_FAMILIES:
            raise ValueError(f"unknown pair-copula family {self.family!r}")
        if self.family == "gaussian":
            if self.theta is None or not -1.0 < self.theta < 1.0:
                raise ValueError(
                    f"gaussian theta must be in (-1, 1), got {self.theta}"
                )
        elif self.theta is not None:
            raise ValueError("independence copula takes no parameter")

    def density(self, u, v):
        """Copula density at (u, v), both strictly inside (0, 1)."""
        u = _check_open_unit(u, "u")
        v = _check_open_unit(v, "v")
        if self.family == "independence":
            return np.ones_like(u) if u.ndim else 1.0
        from scipy.special import ndtri

        theta = self.theta
        zu = ndtri(u)
        zv = ndtri(v)
        denom = 1.0 - theta * theta
        exponent = -(theta * theta * (zu * zu + zv * zv) - 2.0 * theta * zu * zv)
        result = np.exp(exponent / (2.0 * denom)) / np.sqrt(denom)
        return float(result) if result.ndim == 0 else result

    def block_density(self, u):
        """Adapter for block evaluators: density of a length-2 point."""
        u = np.asarray(u, dtype=float)
        if u.shape != (2,):
            raise ValueError(f"pair copula expects a length-2 point, got {u.shape}")
        return float(self.density(u[0], u[1]))


def pair_copula_density(copula: PairCopula, u, v):
    """Module-level alias of :meth:`PairCopula.density`."""
    return copula.density(u, v)


@dataclass(frozen=True)
class MixtureCopulaDensity:
    """Convex combination of copula densities over the same variables."""

    components: tuple
    weights: tuple[float, ...]

    def __post_init__(self):
        components = tuple(self.components)
        weights = tuple(float(w) for w in self.weights)
        if not components:
            raise ValueError("mixture needs at least one component")
        if len(weights) != len(components):
            raise ValueError(
                f"{len(weights)} weights for {len(components)} components"
            )
        if any(w < 0.0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {sum(weights)}")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "weights", weights)

    def density(self, u) -> float:
        u = np.asarray(u, dtype=float)
        return float(
            sum(w * f(u) for w, f in zip(self.weights, self.components))
        )


def mixture_density(mixture: MixtureCopulaDensity, u) -> float:
    """Module-level alias of :meth:`MixtureCopulaDensity.density`."""
    return mixture.density(u)


@dataclass(frozen=True)
class ProductCopulaDensity:
    """Product of copula densities over disjoint blocks of variables.

    ``blocks`` is a sequence of (indices, evaluator) pairs where the
    0-based indices must partition range(dim) and each evaluator maps the
    point restricted to its block to a density value.  A tree of
    bivariate blocks is the graphical-model case.
    """

    dim: int
    blocks: tuple

    def __post_init__(self):
        blocks = tuple((tuple(idx), f) for idx, f in self.blocks)
        seen = [i for idx, _ in blocks for i in idx]
        if sorted(seen) != list(range(self.dim)):
            raise ValueError(
                f"blocks must partition 0..{self.dim - 1} exactly, got {sorted(seen)}"
            )
        if any(len(idx) == 0 for idx, _ in blocks):
            raise ValueError("blocks must be nonempty")
        object.__setattr__(self, "blocks", blocks)

    def density(self, u) -> float:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise ValueError(f"point must have length {self.dim}, got {u.shape}")
        result = 1.0
        for idx, f in self.blocks:
            result *= float(f(u[list(idx)]))
        return result


def product_density(product: ProductCopulaDensity, u) -> float:
    """Module-level alias of :meth:`ProductCopulaDensity.density`."""
    return product.density(u)


@dataclass(frozen=True)
class MarginSpec:
    """A 1-D margin used to map copula uniforms to data scale."""

    family: str
    rate: float | None = None

    def __post_init__(self):
        if self.family not in MARGIN_FAMILIES:
            raise ValueError(f"unknown margin family {self.family!r}")
        if self.family == "exponential":
            if self.rate is None or not self.rate > 0:
                raise ValueError(f"exponential rate must be > 0, got {self.rate}")
        elif self.rate is not None:
            raise ValueError("standard_normal margin takes no rate")

    def quantile(self, u):
        u = _check_open_unit(u, "u")
        if self.family == "standard_normal":
            from scipy.special import ndtri

            return ndtri(u)
        return -np.log1p(-u) / self.rate


def sample_gaussian_copula(sigma, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` rows of correlated uniforms from a Gaussian copula.

    Applies the Cholesky factor of ``sigma`` to seeded independent
    standard normals and pushes each coordinate through the standard
    normal CDF.  Bit-identical output for identical seeds.

    Raises
    ------
    ValueError
        If sigma is not symmetric with unit diagonal, or the Cholesky
        factorization fails (not positive definite).
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"sigma must be square, got shape {sigma.shape}")
    if np.abs(sigma - sigma.T).max(initial=0.0) > 1e-12:
        raise ValueError("sigma must be symmetric")
    if np.abs(np.diag(sigma) - 1.0).max(initial=0.0) > 1e-12:
        raise ValueError("sigma must have a unit diagonal")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    try:
        factor = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ValueError(
            "sigma is not positive definite (Cholesky factorization failed)"
        ) from None
    from scipy.special import ndtr

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, sigma.shape[0])) @ factor.T
    return ndtr(z)


def push_margins(
    uniforms: np.ndarray,
    margins,
    columns=None,
) -> Dataset:
    """Map a T x N matrix of uniforms through inverse marginal CDFs.

    Column i becomes margins[i].quantile(u).  Column names default to
    x1..xN.  Every uniform must lie strictly inside (0, 1).
    """
    uniforms = np.asarray(uniforms, dtype=float)
    if uniforms.ndim != 2:
        raise ValueError(f"uniforms must be 2-D, got shape {uniforms.shape}")
    margins = list(margins)
    if len(margins) != uniforms.shape[1]:
        raise ValueError(
            f"{len(margins)} margins for {uniforms.shape[1]} columns"
        )
    _check_open_unit(uniforms, "uniforms")
    values = np.column_stack(
        [margin.quantile(uniforms[:, i]) for i, margin in enumerate(margins)]
    )
    if columns is None:
        columns = tuple(f"x{i + 1}" for i in range(len(margins)))
    return Dataset(columns=tuple(columns), values=values)


@dataclass(frozen=True)
class CopulaBlock:
    """A group of mutually dependent variables in a synthetic spec.

    ``variables`` are 1-based indices; a gaussian block couples them with
    a common pairwise correlation theta.
    """

    variables: tuple[int, ...]
    family: str
    theta: float | None = None

    def __post_init__(self):
        variables = tuple(int(v) for v in self.variables)
        if not variables:
            raise ValueError("block needs at least one variable")
        if self.family not in PAIR_FAMILIES:
            raise ValueError(f"unknown block family {self.family!r}")
        if self.family == "gaussian":
            if self.theta is None or not -1.0 < self.theta < 1.0:
                raise ValueError(
                    f"gaussian theta must be in (-1, 1), got {self.theta}"
                )
        elif self.theta is not None:
            raise ValueError("independence block takes no theta")
        object.__setattr__(self, "variables", variables)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic dataset: blocks, margins, size and seed."""

    blocks: tuple[CopulaBlock, ...]
    margins: tuple[MarginSpec, ...]
    samples: int
    seed: int
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        blocks = tuple(self.blocks)
        margins = tuple(self.margins)
        n = len(margins)
        listed = sorted(v for block in blocks for v in block.variables)
        if listed != list(range(1, n + 1)):
            raise ValueError(
                f"blocks must partition variables 1..{n}, got {listed}"
            )
        if self.samples < 2:
            raise ValueError(f"samples must be >= 2, got {self.samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.names is not None:
            names = tuple(self.names)
            if len(names) != n:
                raise ValueError(f"{len(names)} names for {n} variables")
            object.__setattr__(self, "names", names)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "margins", margins)

    @property
    def dim(self) -> int:
        return len(self.margins)


def load_synthetic_spec(source) -> SyntheticSpec:
    """Parse a synthetic-spec JSON file or dict.

    Format::

        {"blocks": [{"vars": [1, 2, 3], "family": "gaussian", "theta": 0.8},
                    {"vars": [4, 5], "family": "gaussian", "theta": 0.8}],
         "margins": [{"family": "standard_normal"}, ...,
                     {"family": "exponential", "rate": 1.0}],
         "samples": 1000,
         "seed": 42,
         "names": ["G1", "G2", "G3", "Cn", "Ce"]}   # optional

    Variable indices in "vars" are 1-based and must partition 1..N,
    where N is the number of margins.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    elif isinstance(source, dict):
        raw = source
    else:
        raw = json.load(source)
    if not isinstance(raw, dict):
        raise ValueError("synthetic spec must be a JSON object")
    try:
        raw_blocks = raw["blocks"]
        raw_margins = raw["margins"]
        samples = int(raw["samples"])
        seed = int(raw["seed"])
    except KeyError as missing:
        raise ValueError(f"synthetic spec is missing key {missing}") from None
    blocks = tuple(
        CopulaBlock(
            variables=tuple(b["vars"]),
            family=b["family"],
            theta=b.get("theta"),
        )
        for b in raw_blocks
    )
    margins = tuple(
        MarginSpec(family=m["family"], rate=m.get("rate")) for m in raw_margins
    )
    names = tuple(raw["names"]) if "names" in raw else None
    return SyntheticSpec(
        blocks=blocks, margins=margins, samples=samples, seed=seed, names=names
    )


def block_correlation(spec: SyntheticSpec) -> np.ndarray:
    """Block-diagonal correlation matrix implied by a synthetic spec.

    Within a gaussian block every variable pair gets correlation theta;
    blocks are mutually independent.
    """
    sigma = np.eye(spec.dim)
    for block in spec.blocks:
        if block.family != "gaussian":
            continue
        idx = [v - 1 for v in block.variables]
        for a in idx:
            for b in idx:
                if a != b:
                    sigma[a, b] = block.theta
    return sigma


def generate_synthetic(spec: SyntheticSpec, seed: int | None = None) -> Dataset:
    """Sample a Dataset from a synthetic spec; ``seed`` overrides the
    spec's own seed and is validated as the spec's is."""
    if seed is not None:
        spec = replace(spec, seed=seed)
    uniforms = sample_gaussian_copula(block_correlation(spec), spec.samples, spec.seed)
    return push_margins(uniforms, spec.margins, columns=spec.names)

"""Closed-form pair copulas and seeded synthetic data.

``PairCopula`` evaluates the independence and Gaussian copula densities.
The sampler draws correlated uniforms via a Cholesky factor and the
standard normal CDF, and ``push_margins`` maps them through inverse
marginal CDFs.  A synthetic spec (``load_synthetic_spec``) names the
copula blocks and margins that ``generate_synthetic`` combines.

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

from .dataset import Dataset, _integer, _real

__all__ = [
    "PairCopula",
    "MarginSpec",
    "CopulaBlock",
    "SyntheticSpec",
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
    if not np.all((u > 0.0) & (u < 1.0)):  # NaN fails both comparisons
        raise ValueError(f"{name} must lie strictly inside (0, 1)")
    return u


def _get(raw, key: str, where: str):
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in raw:
        raise ValueError(f"{where} is missing key {key!r}")
    return raw[key]


def _list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a list, got {value!r}")
    return value


def _json_integer(value):
    """An integral float, which JSON may write for an integer (10.0), as
    that int; any other value as it is, for the spec's own checks."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


@dataclass(frozen=True)
class PairCopula:
    """A bivariate copula: independence, or Gaussian with theta in (-1, 1)."""

    family: str
    theta: float | None = None

    def __post_init__(self):
        if self.family not in PAIR_FAMILIES:
            raise ValueError(f"unknown pair-copula family {self.family!r}")
        if self.family == "gaussian":
            if not _real(self.theta) or not -1.0 < self.theta < 1.0:
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


@dataclass(frozen=True)
class MarginSpec:
    """A 1-D margin used to map copula uniforms to data scale."""

    family: str
    rate: float | None = None

    def __post_init__(self):
        if self.family not in MARGIN_FAMILIES:
            raise ValueError(f"unknown margin family {self.family!r}")
        if self.family == "exponential":
            if not _real(self.rate) or not 0 < self.rate < np.inf:
                raise ValueError(
                    f"exponential rate must be > 0 and finite, got {self.rate}"
                )
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
        If sigma is not finite, not symmetric with unit diagonal, or the
        Cholesky factorization fails (not positive definite).
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"sigma must be square, got shape {sigma.shape}")
    if not np.all(np.isfinite(sigma)):
        raise ValueError("sigma must be finite")
    if np.abs(sigma - sigma.T).max(initial=0.0) > 1e-12:
        raise ValueError("sigma must be symmetric")
    if np.abs(np.diag(sigma) - 1.0).max(initial=0.0) > 1e-12:
        raise ValueError("sigma must have a unit diagonal")
    count = _integer(count, "count", 1)
    seed = _integer(seed, "seed", 0)
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
        variables = tuple(_integer(v, "block vars", 1) for v in self.variables)
        if not variables:
            raise ValueError("block needs at least one variable")
        PairCopula(self.family, self.theta)  # checks family and theta
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
        object.__setattr__(self, "samples", _integer(self.samples, "samples", 2))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))
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
    where N is the number of margins.  "vars" entries, "samples" and
    "seed" must be integers (an integral float such as 10.0 counts).
    Raises ValueError, naming the key or field, for a malformed spec.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    elif isinstance(source, dict):
        raw = source
    else:
        raw = json.load(source)
    top = "synthetic spec"
    blocks = [
        CopulaBlock(
            variables=tuple(map(_json_integer, _list(
                _get(b, "vars", f"blocks[{i}]"), f"blocks[{i}].vars"))),
            family=_get(b, "family", f"blocks[{i}]"),
            theta=b.get("theta"),
        )
        for i, b in enumerate(_list(_get(raw, "blocks", top), "blocks"))
    ]
    margins = [
        MarginSpec(family=_get(m, "family", f"margins[{i}]"), rate=m.get("rate"))
        for i, m in enumerate(_list(_get(raw, "margins", top), "margins"))
    ]
    samples = _json_integer(_get(raw, "samples", top))
    seed = _json_integer(_get(raw, "seed", top))
    names = tuple(_list(raw["names"], "names")) if "names" in raw else None
    return SyntheticSpec(
        blocks=blocks, margins=margins, samples=samples, seed=seed, names=names
    )


def block_correlation(spec: SyntheticSpec) -> np.ndarray:
    """Block-diagonal correlation matrix implied by a synthetic spec.

    Within a gaussian block every variable pair gets correlation theta;
    blocks are mutually independent.
    """
    sigma = np.zeros((spec.dim, spec.dim))
    for block in spec.blocks:
        if block.family == "gaussian":
            idx = [v - 1 for v in block.variables]
            sigma[np.ix_(idx, idx)] = block.theta
    np.fill_diagonal(sigma, 1.0)
    return sigma


def generate_synthetic(spec: SyntheticSpec, seed: int | None = None) -> Dataset:
    """Sample a Dataset from a synthetic spec; ``seed`` overrides the
    spec's own seed and is validated as the spec's is."""
    if seed is not None:
        spec = replace(spec, seed=seed)
    uniforms = sample_gaussian_copula(block_correlation(spec), spec.samples, spec.seed)
    return push_margins(uniforms, spec.margins, columns=spec.names)

"""Rank-based dependence structure estimation via empirical copulas.

The package turns a numeric table into per-column ranks, estimates the
copula of any variable pair on a lattice, scores pairwise dependence with
Spearman's rho or lattice mutual information, and assembles the maximum
spanning dependence tree over all variables.
"""

from .algebra import (
    CopulaBlock,
    MarginSpec,
    PairCopula,
    SyntheticSpec,
    block_correlation,
    generate_synthetic,
    load_synthetic_spec,
    push_margins,
    sample_gaussian_copula,
)
from .dataset import Dataset, RankMatrix, column_ranks, load_dataset, rank_transform
from .empirical import (
    CopulaGrid,
    copula_cdf_grid,
    copula_mass_grid,
    default_lattice_order,
    empirical_copula,
)
from .measures import (
    MEASURES,
    KernelDensity,
    WeightMatrix,
    mutual_info_cell,
    mutual_info_kde,
    spearman_rho,
    weight_matrix,
)
from .structure import (
    DependenceTree,
    TreeEdge,
    coverage_ratio,
    learn_structure,
    maximum_spanning_tree,
)

__version__ = "0.1.0"

__all__ = [
    "CopulaBlock",
    "CopulaGrid",
    "Dataset",
    "DependenceTree",
    "KernelDensity",
    "MEASURES",
    "MarginSpec",
    "PairCopula",
    "RankMatrix",
    "SyntheticSpec",
    "TreeEdge",
    "WeightMatrix",
    "block_correlation",
    "column_ranks",
    "copula_cdf_grid",
    "copula_mass_grid",
    "coverage_ratio",
    "default_lattice_order",
    "empirical_copula",
    "generate_synthetic",
    "learn_structure",
    "load_dataset",
    "load_synthetic_spec",
    "maximum_spanning_tree",
    "mutual_info_cell",
    "mutual_info_kde",
    "push_margins",
    "rank_transform",
    "sample_gaussian_copula",
    "spearman_rho",
    "weight_matrix",
    "__version__",
]

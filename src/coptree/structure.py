"""Maximum spanning dependence trees over pairwise weight matrices.

The tree maximizing total pairwise dependence is grown greedily: start
from the globally heaviest edge, then repeatedly attach the out-of-tree
vertex with the heaviest crossing edge (Prim on a dense matrix, O(N^2)).
Each out-of-tree vertex keeps its best crossing edge as a weight and an
in-tree partner, and attaching a vertex updates all of them with one
vectorized compare against its row.  Ties are broken toward the
lexicographically smallest (min index, max index) pair, making the result
fully deterministic.  Of two equal edges into the same vertex, the one
whose other end is smaller always has the smaller pair, so a vertex keeps
the smaller partner; the pairs themselves are compared only when several
vertices hold the top weight.

An edge's spanning weight is |s| of the one score s stored for its pair:
Prim reads the signed matrix and takes |s| of each row it compares, and
a :class:`TreeEdge` derives its ``weight`` from its ``signed_value``.

The package's own edges and trees are built through ``dataset._unchecked``
without re-running the :class:`TreeEdge` and :class:`DependenceTree`
checks, which a valid :class:`WeightMatrix` and Prim meet by construction;
the public constructors keep every check for trees from outside.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _integer, _real, _unchecked, _unique_names
from .measures import MEASURES, WeightMatrix, weight_matrix

__all__ = [
    "TreeEdge",
    "DependenceTree",
    "maximum_spanning_tree",
    "coverage_ratio",
    "learn_structure",
]


@dataclass(frozen=True)
class TreeEdge:
    """Undirected weighted tree edge.  ``signed_value`` is the pair's
    score (the signed rho for rho_abs, the MI otherwise) and the one
    number stored; the ``weight`` property is ``abs(signed_value)``, the
    spanning weight.  A ``signed_value`` that is not a finite real number
    raises ValueError."""

    u: str
    v: str
    signed_value: float

    def __post_init__(self):
        if not (_real(self.signed_value) and -np.inf < self.signed_value < np.inf):
            raise ValueError(f"edge ({self.u}, {self.v}) signed value must be a finite "
                             f"number, got {self.signed_value!r}")

    @property
    def weight(self) -> float:
        return abs(self.signed_value)


@dataclass(frozen=True)
class DependenceTree:
    """A spanning tree of the variables: N nodes, N-1 weighted edges.

    Each edge must be a :class:`TreeEdge`.  ``coverage_ratio`` is None or
    a number in (0, 1].
    """

    nodes: tuple[str, ...]
    edges: tuple[TreeEdge, ...]
    measure: str
    lattice_order: int
    coverage_ratio: float | None = None

    def __post_init__(self):
        nodes = _unique_names(self.nodes, "node")
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        object.__setattr__(self, "lattice_order", _integer(self.lattice_order, "lattice order", 2))
        ratio = self.coverage_ratio
        if ratio is not None and not (_real(ratio) and 0.0 < ratio <= 1.0):
            raise ValueError(f"coverage ratio must be None or in (0, 1], got {ratio!r}")
        edges = tuple(self.edges)
        if len(edges) != len(nodes) - 1:
            raise ValueError(
                f"{len(nodes)} nodes need {len(nodes) - 1} edges, got {len(edges)}"
            )
        index = {name: i for i, name in enumerate(nodes)}
        parent = list(range(len(nodes)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for edge in edges:
            if not isinstance(edge, TreeEdge):
                raise ValueError(f"edges must be TreeEdge objects, got {type(edge).__name__}")
            if edge.u not in index or edge.v not in index:
                raise ValueError(f"edge ({edge.u}, {edge.v}) names unknown nodes")
            ru, rv = find(index[edge.u]), find(index[edge.v])
            if ru == rv:
                raise ValueError(f"edge ({edge.u}, {edge.v}) creates a cycle")
            parent[ru] = rv
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)

    def total_weight(self) -> float:
        return float(sum(edge.weight for edge in self.edges))

    def edge_pairs(self) -> set[tuple[str, str]]:
        """Edges as name pairs sorted within each pair."""
        return {tuple(sorted((e.u, e.v))) for e in self.edges}

    def degrees(self) -> dict[str, int]:
        out = {name: 0 for name in self.nodes}
        for e in self.edges:
            out[e.u] += 1
            out[e.v] += 1
        return out


def maximum_spanning_tree(w: WeightMatrix) -> DependenceTree:
    """Spanning tree with maximum total weight, grown from the heaviest edge.

    Deterministic: ties fall to the lexicographically smallest
    (min index, max index) pair.  With all weights equal this yields the
    star rooted at the first node.  Edges are listed in the order they
    join the tree.

    The edges and the tree are built without the :class:`TreeEdge` and
    :class:`DependenceTree` checks: a :class:`WeightMatrix` holds finite
    weights over unique names, and Prim's N-1 picks span the nodes by
    construction.  Prim reads ``w.signed`` and takes the spanning weight
    |s| of one row at a time, so no N x N array of weights is made.
    """
    n = w.dim
    if n < 2:
        raise ValueError(f"need at least 2 variables, got {n}")
    signed = w.signed
    # Each out-of-tree vertex's best crossing edge: its weight and in-tree
    # end.  In-tree vertices hold -inf so that they are never picked.
    out = np.ones(n, dtype=bool)
    best = np.full(n, -np.inf)
    partner = np.zeros(n, dtype=np.int64)
    # The heaviest edge's smaller end is the first row holding the largest
    # weight |s| (a zero diagonal keeps each row's largest |s| >= 0).
    # Growing from it attaches the heaviest edge first.
    u = int(np.argmax(np.maximum(signed.max(axis=1), -signed.min(axis=1))))
    edges = []
    for _ in range(n - 1):
        out[u] = False
        best[u] = -np.inf
        row = np.abs(signed[u])
        # of two equal edges into v, the one with the smaller other end
        # has the smaller (min index, max index) pair
        better = out & ((row > best) | ((row == best) & (u < partner)))
        np.copyto(best, row, where=better)
        np.copyto(partner, u, where=better)
        u = int(best.argmax())
        tied = best == best[u]
        if np.count_nonzero(tied) > 1:
            # several vertices hold the top weight: the smallest
            # (min index, max index) pair, ranked as min * n + max, wins
            top = tied.nonzero()[0]
            ends = partner[top]
            key = np.minimum(top, ends) * n + np.maximum(top, ends)
            u = int(top[key.argmin()])
        v = int(partner[u])
        edges.append((min(u, v), max(u, v)))
    tree_edges = tuple(
        _unchecked(TreeEdge, u=w.names[a], v=w.names[b], signed_value=float(signed[a, b]))
        for a, b in edges)
    return _unchecked(DependenceTree, nodes=w.names, edges=tree_edges, measure=w.measure,
                      lattice_order=w.lattice_order, coverage_ratio=None)


def coverage_ratio(tree: DependenceTree, w: WeightMatrix) -> float:
    """Tree edge-weight sum over the sum of all unordered pair weights.

    Lies in (0, 1]; a value near 1 means the tree alone captures most of
    the pairwise dependence mass.  When every weight is 0 the tree holds
    all of it, so the ratio is 1.0.  The tree's sum is added in join
    order and the total in another, so a tree that holds every nonzero
    weight can come out a rounding step above 1; the ratio is capped at
    1.0, which leaves every ratio below it as it is.  A tree and a matrix
    of another measure or lattice order raise ValueError.
    """
    if tree.nodes != w.names:
        raise ValueError("tree nodes do not match the weight matrix")
    if (tree.measure, tree.lattice_order) != (w.measure, w.lattice_order):
        raise ValueError(f"tree of {tree.measure} at lattice order {tree.lattice_order} does "
                         f"not match the weight matrix of {w.measure} at lattice order "
                         f"{w.lattice_order}")
    index = {name: i for i, name in enumerate(w.names)}
    tree_sum = 0.0
    for edge in tree.edges:
        weight, entry = edge.weight, abs(w.signed.item(index[edge.u], index[edge.v]))
        if abs(entry - weight) > 1e-12:
            raise ValueError(
                f"edge ({edge.u}, {edge.v}) weight {weight} does not "
                f"match the matrix entry {entry}"
            )
        tree_sum += weight
    # the pairs above the diagonal in row-major order, the order that fixes the sum's bits
    upper = w.signed[~np.tri(w.dim, dtype=bool)]
    total = float(np.abs(upper, out=upper).sum())
    return min(tree_sum / total, 1.0) if total > 0.0 else 1.0


def learn_structure(
    data: Dataset,
    measure: str = "mi_cell",
    lattice_order: int = 0,
    tie_seed: int = 0,
) -> DependenceTree:
    """End-to-end pipeline: ranks -> weight matrix -> maximum spanning tree.

    Returns the tree with its coverage ratio filled in, set on a copy of
    the tree without re-running its checks.  Fully
    deterministic for fixed inputs; exactly invariant under strictly
    increasing per-column transformations of the data for every measure,
    since each depends on the ranks only.  ``tie_seed`` fixes the random
    tie order as in :func:`coptree.measures.weight_matrix`: SplitMix64
    keyed by (``tie_seed`` mod 2^64, tied-column ordinal, row), the same
    on every numpy version and CPU.
    """
    w = weight_matrix(data, measure, lattice_order, tie_seed)
    tree = maximum_spanning_tree(w)
    return _unchecked(DependenceTree, **{**vars(tree), "coverage_ratio": coverage_ratio(tree, w)})

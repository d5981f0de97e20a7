"""Maximum spanning tree, coverage ratio, and the learning pipeline."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coptree import (
    Dataset,
    DependenceTree,
    TreeEdge,
    WeightMatrix,
    coverage_ratio,
    learn_structure,
    maximum_spanning_tree,
)
from oracles import best_tree_weight, connected, literal_prim


def matrix_of(names, entries, measure="mi_cell"):
    n = len(names)
    values = np.zeros((n, n))
    for (i, j), w in entries.items():
        values[i, j] = values[j, i] = w
    return WeightMatrix(names=tuple(names), measure=measure, lattice_order=2, signed=values)


class TestMaximumSpanningTree:
    def test_three_node_example(self):
        w = matrix_of("abc", {(0, 1): 0.9, (0, 2): 0.5, (1, 2): 0.1})
        tree = maximum_spanning_tree(w)
        assert tree.edge_pairs() == {("a", "b"), ("a", "c")}
        assert tree.total_weight() == pytest.approx(1.4)

    def test_two_nodes(self):
        w = matrix_of("ab", {(0, 1): 0.42})
        tree = maximum_spanning_tree(w)
        assert tree.edge_pairs() == {("a", "b")}

    def test_equal_weights_give_star_at_first_node(self):
        names = tuple("abcde")
        w = matrix_of(names, {(i, j): 0.5 for i in range(5) for j in range(i + 1, 5)})
        tree = maximum_spanning_tree(w)
        assert tree.edge_pairs() == {("a", x) for x in "bcde"}

    def test_optimal_against_enumeration(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            names = tuple(f"v{i}" for i in range(n))
            entries = {
                (i, j): float(rng.random())
                for i in range(n)
                for j in range(i + 1, n)
            }
            w = matrix_of(names, entries)
            tree = maximum_spanning_tree(w)
            assert tree.total_weight() == pytest.approx(best_tree_weight(w.values))

    def test_deterministic_under_duplicate_weights(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(3, 7))
            names = tuple(f"v{i}" for i in range(n))
            # few distinct levels force frequent ties
            entries = {
                (i, j): float(rng.integers(0, 3)) / 2.0
                for i in range(n)
                for j in range(i + 1, n)
            }
            w = matrix_of(names, entries)
            first = maximum_spanning_tree(w)
            second = maximum_spanning_tree(w)
            assert [
                (e.u, e.v) for e in first.edges
            ] == [(e.u, e.v) for e in second.edges]
            assert first.total_weight() == pytest.approx(best_tree_weight(w.values))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_edges_in_same_order_as_literal_prim(self, data):
        # three weight levels make most comparisons ties, so every edge
        # choice exercises the (weight, -min index, -max index) key
        n = data.draw(st.integers(2, 12), label="N")
        upper = data.draw(
            st.lists(st.integers(0, 2), min_size=n * (n - 1) // 2,
                     max_size=n * (n - 1) // 2),
            label="weights",
        )
        values = np.zeros((n, n))
        values[np.triu_indices(n, 1)] = upper
        values += values.T
        names = tuple(f"v{i}" for i in range(n))
        w = WeightMatrix(names=names, measure="mi_cell", lattice_order=2, signed=values)
        tree = maximum_spanning_tree(w)
        got = [(names.index(e.u), names.index(e.v)) for e in tree.edges]
        assert got == literal_prim(values)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_ties_across_vertices_match_literal_prim(self, data):
        # with two weight levels several out-of-tree vertices often share
        # the top weight, so the pick falls to the (min index, max index) rule
        n = data.draw(st.integers(2, 40), label="N")
        heavy = data.draw(st.floats(0.05, 0.95), label="share of heavy edges")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        values = np.zeros((n, n))
        values[np.triu_indices(n, 1)] = rng.random(n * (n - 1) // 2) < heavy
        values += values.T
        names = tuple(f"v{i}" for i in range(n))
        w = WeightMatrix(names=names, measure="mi_cell", lattice_order=2, signed=values)
        tree = maximum_spanning_tree(w)
        got = [(names.index(e.u), names.index(e.v)) for e in tree.edges]
        assert got == literal_prim(values)

    def test_tied_vertices_compare_edge_pairs_not_vertex_indices(self):
        # After (1, 4), vertex 3 holds weight 2 through partner 4 and vertex
        # 5 weight 2 through partner 1.  (1, 5) < (3, 4) although 3 < 5.
        entries = {(i, j): 1.0 for i in range(6) for j in range(i + 1, 6)}
        entries.update({(1, 4): 3.0, (3, 4): 2.0, (1, 5): 2.0})
        w = matrix_of(tuple("012345"), entries)
        got = [(int(e.u), int(e.v)) for e in maximum_spanning_tree(w).edges]
        assert got[:3] == [(1, 4), (1, 5), (3, 4)]
        assert got == literal_prim(w.values)

    def test_duplicate_names_rejected_by_name(self):
        with pytest.raises(ValueError, match=r"^duplicate variable name\(s\): a$"):
            maximum_spanning_tree(matrix_of(("a", "a", "b"), {(0, 1): 0.9, (1, 2): 0.5}))

    def test_single_node_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            maximum_spanning_tree(
                WeightMatrix(names=("a",), measure="mi_cell", lattice_order=2,
                             signed=np.zeros((1, 1)))
            )


class TestDependenceTreeType:
    def test_edge_count_enforced(self):
        with pytest.raises(ValueError, match="edges"):
            DependenceTree(
                nodes=("a", "b", "c"),
                edges=(TreeEdge("a", "b", 1.0),),
                measure="mi_cell",
                lattice_order=2,
            )

    def test_cycles_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            DependenceTree(
                nodes=("a", "b", "c"),
                edges=(
                    TreeEdge("a", "b", 1.0),
                    TreeEdge("a", "b", 0.5),
                ),
                measure="mi_cell",
                lattice_order=2,
            )

    def test_duplicate_nodes_rejected_by_name(self):
        with pytest.raises(ValueError, match=r"^duplicate node name\(s\): a$"):
            DependenceTree(
                nodes=("a", "b", "a"),
                edges=(TreeEdge("a", "b", 1.0), TreeEdge("b", "a", 0.5)),
                measure="mi_cell",
                lattice_order=2,
            )

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            DependenceTree(
                nodes=("a", "b"),
                edges=(TreeEdge("a", "q", 1.0),),
                measure="mi_cell",
                lattice_order=2,
            )


    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError, match="^unknown measure 'bogus'$"):
            DependenceTree(("a", "b"), (TreeEdge("a", "b", 0.5),), "bogus", 2)

    # every measure records a lattice order K >= 2, rho_abs included
    @pytest.mark.parametrize("order", [-7, 0, 1, True, 2.0, "x", None])
    def test_lattice_order_must_be_an_integer_of_at_least_2(self, order):
        with pytest.raises(ValueError, match="^lattice order must be"):
            DependenceTree(("a", "b"), (TreeEdge("a", "b", 0.5),), "rho_abs", order)

    def test_numpy_lattice_order_stored_as_int(self):
        tree = DependenceTree(("a", "b"), (TreeEdge("a", "b", 0.5),), "mi_cell", np.int64(4))
        assert type(tree.lattice_order) is int and tree.lattice_order == 4

    # json.dumps would write NaN or Infinity, which is not JSON
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, "x", None, True])
    def test_edge_value_must_be_a_finite_number(self, value):
        with pytest.raises(ValueError,
                           match=r"^edge \(a, b\) signed value must be a finite number, got "):
            TreeEdge("a", "b", value)

    @pytest.mark.parametrize("value", [-0.5, np.float64(-0.5), 0, 3])
    def test_edge_weight_is_the_absolute_value(self, value):
        assert TreeEdge("a", "b", value).weight == abs(value)

    @pytest.mark.parametrize("ratio", [7.5, 1.0000000000000002, 0.0, -0.1, np.nan, np.inf,
                                       "0.5", True])
    def test_coverage_ratio_must_lie_in_the_unit_interval(self, ratio):
        with pytest.raises(ValueError, match=r"^coverage ratio must be None or in \(0, 1\], got "):
            DependenceTree(("a", "b"), (TreeEdge("a", "b", 0.5),), "mi_cell", 2, ratio)

    @pytest.mark.parametrize("ratio", [None, 5e-324, 0.5, 1.0, np.float64(1.0), 1])
    def test_coverage_ratio_accepted(self, ratio):
        tree = DependenceTree(("a", "b"), (TreeEdge("a", "b", 0.5),), "mi_cell", 2, ratio)
        assert tree.coverage_ratio is ratio


class TestCoverageRatio:
    def test_two_nodes_cover_everything(self):
        w = matrix_of("ab", {(0, 1): 0.7})
        tree = maximum_spanning_tree(w)
        assert coverage_ratio(tree, w) == 1.0

    def test_three_node_example(self):
        w = matrix_of("abc", {(0, 1): 0.9, (0, 2): 0.5, (1, 2): 0.1})
        tree = maximum_spanning_tree(w)
        assert coverage_ratio(tree, w) == pytest.approx(1.4 / 1.5)

    def test_weakly_attached_node_still_spanned(self):
        w = matrix_of("abc", {(0, 1): 0.8, (0, 2): 0.05, (1, 2): 0.03})
        tree = maximum_spanning_tree(w)
        assert len(tree.edges) == 2
        assert {"a", "b", "c"} == set(tree.nodes)
        ratio = coverage_ratio(tree, w)
        assert 0.0 < ratio < 1.0

    def test_zero_total_covers_everything(self):
        # with every weight 0 the tree holds all of the pairwise weight
        w = matrix_of("abc", {(0, 1): 0.0, (0, 2): 0.0, (1, 2): 0.0})
        tree = maximum_spanning_tree(w)
        assert coverage_ratio(tree, w) == 1.0

    def test_never_exceeds_one(self):
        # the tree's sum is added in join order, 1.1 + 0.1 + 0.1 =
        # 1.3000000000000003, the total by np.sum, 1.3: capped at 1.0
        w = matrix_of("abcd", {(0, 1): 0.1, (1, 2): 0.1, (2, 3): 1.1})
        assert coverage_ratio(maximum_spanning_tree(w), w) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_tree_holding_every_weight_stays_in_the_unit_interval(self, data):
        # node k > 0 hangs from a parent below it with a positive weight,
        # and every other weight is 0, so the tree holds all of the weight
        n = data.draw(st.integers(2, 12), label="N")
        entries = {
            (data.draw(st.integers(0, k - 1), label="parent"), k):
                data.draw(st.floats(1e-3, 1e3), label="weight")
            for k in range(1, n)
        }
        names = [f"v{k:02d}" for k in range(n)]
        w = matrix_of(names, entries)
        tree = maximum_spanning_tree(w)
        assert tree.edge_pairs() == {(names[i], names[j]) for i, j in entries}
        ratio = coverage_ratio(tree, w)
        assert 1.0 - 1e-12 < ratio <= 1.0

    def test_mismatched_weights_rejected(self):
        w = matrix_of("abc", {(0, 1): 0.9, (0, 2): 0.5, (1, 2): 0.1})
        tree = maximum_spanning_tree(w)
        other = matrix_of("abc", {(0, 1): 0.8, (0, 2): 0.5, (1, 2): 0.1})
        with pytest.raises(ValueError, match="does not match"):
            coverage_ratio(tree, other)


class TestLearnStructure:
    def test_pipeline_fills_coverage(self):
        rng = np.random.default_rng(22)
        data = Dataset(columns=("a", "b", "c"), values=rng.standard_normal((200, 3)))
        tree = learn_structure(data, "rho_abs")
        assert tree.coverage_ratio is not None
        assert 0.0 < tree.coverage_ratio <= 1.0
        assert len(tree.edges) == 2

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        data = Dataset(columns=("a", "b", "c", "d"), values=rng.standard_normal((150, 4)))
        first = learn_structure(data, "mi_cell")
        second = learn_structure(data, "mi_cell")
        assert first == second

    @pytest.mark.parametrize("measure", ["rho_abs", "mi_cell"])
    def test_exact_invariance_under_increasing_transforms(self, measure):
        rng = np.random.default_rng(24)
        values = np.round(rng.standard_normal((180, 4)), 1)
        base = learn_structure(Dataset(columns=tuple("abcd"), values=values), measure)
        for transform in (np.exp, lambda v: v**3, lambda v: 4.0 * v + 1.0):
            moved = learn_structure(
                Dataset(columns=tuple("abcd"), values=transform(values)), measure
            )
            assert base == moved

    def test_tight_group_backbone_with_weak_leaves(self):
        # four near-copies of one signal plus two nearly unrelated
        # variables: the copies must form a connected subtree and the
        # weak variables must attach as leaves
        rng = np.random.default_rng(26)
        t = 1500
        core = rng.standard_normal(t)
        values = np.column_stack(
            [core + 0.15 * rng.standard_normal(t) for _ in range(4)]
            + [
                rng.standard_normal(t) + 0.05 * core,
                rng.standard_normal(t),
            ]
        )
        names = ("c1", "c2", "c3", "c4", "w1", "w2")
        tree = learn_structure(Dataset(columns=names, values=values), "mi_cell")
        assert connected(tree.edge_pairs(), {"c1", "c2", "c3", "c4"})
        degrees = tree.degrees()
        assert degrees["w1"] == 1
        assert degrees["w2"] == 1

    def test_edge_weights_match_matrix(self):
        rng = np.random.default_rng(25)
        data = Dataset(columns=tuple("abcd"), values=rng.standard_normal((100, 4)))
        from coptree import weight_matrix

        w = weight_matrix(data, "mi_cell")
        tree = learn_structure(data, "mi_cell")
        index = {name: i for i, name in enumerate(w.names)}
        for edge in tree.edges:
            assert edge.weight == w.values[index[edge.u], index[edge.v]]

    @pytest.mark.parametrize("measure", ["rho_abs", "mi_cell", "mi_kde"])
    def test_edge_weight_is_absolute_signed_value(self, measure):
        rng = np.random.default_rng(27)
        values = rng.standard_normal((120, 5))
        values[:, 1] -= values[:, 0]  # one negatively dependent pair
        tree = learn_structure(Dataset(columns=tuple("abcde"), values=values), measure)
        for edge in tree.edges:
            assert edge.weight == abs(edge.signed_value)
        if measure == "rho_abs":
            assert any(edge.signed_value < 0.0 for edge in tree.edges)

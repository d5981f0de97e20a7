"""Loader validation and rank-transform behaviour."""
import csv
import hashlib
import io
import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coptree import (
    CopulaBlock,
    CopulaGrid,
    Dataset,
    KernelDensity,
    MarginSpec,
    RankMatrix,
    SyntheticSpec,
    WeightMatrix,
    column_ranks,
    default_lattice_order,
    generate_synthetic,
    load_dataset,
    sample_gaussian_copula,
)
from coptree import dataset, measures
from coptree.dataset import _header, _loadtxt_body, _parse_csv
from oracles import literal_column_ranks, literal_tie_order, splitmix64


def make_dataset(values, names=None):
    values = np.asarray(values, dtype=float)
    names = names or tuple(f"c{i}" for i in range(values.shape[1]))
    return Dataset(columns=tuple(names), values=values)


class TestLoadDataset:
    def test_basic_parse(self):
        data = load_dataset(io.StringIO("a,b\n1,2\n3,4\n"))
        assert data.columns == ("a", "b")
        assert data.sample_count == 2 and data.dim == 2
        assert data.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_row_order_preserved(self):
        data = load_dataset(io.StringIO("a,b\n9,1\n1,9\n5,5\n"))
        assert data.values[:, 0].tolist() == [9.0, 1.0, 5.0]

    def test_non_numeric_cell_reports_row_and_column(self):
        with pytest.raises(ValueError, match=r"row 1, column 'b'"):
            load_dataset(io.StringIO("a,b\n1,x\n3,4\n"))

    def test_single_column_rejected(self):
        with pytest.raises(ValueError, match="at least 2 columns"):
            load_dataset(io.StringIO("a\n1\n2\n"))

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="at least 2 rows"):
            load_dataset(io.StringIO("a,b\n1,2\n"))

    def test_ragged_row(self):
        with pytest.raises(ValueError, match=r"row 2: expected 2 fields, got 3"):
            load_dataset(io.StringIO("a,b\n1,2\n1,2,3\n"))

    def test_duplicate_column_name(self):
        with pytest.raises(ValueError, match="duplicate column"):
            load_dataset(io.StringIO("a,a\n1,2\n3,4\n"))

    def test_nan_and_inf_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            load_dataset(io.StringIO("a,b\n1,nan\n3,4\n"))
        with pytest.raises(ValueError, match="not finite"):
            load_dataset(io.StringIO("a,b\n1,inf\n3,4\n"))

    def test_csv_errors_become_value_errors(self):
        # StringIO's default newline splits lines only at LF, so csv sees
        # the bare CRs inside one record
        with pytest.raises(ValueError, match=r"^header row: new-line character"):
            load_dataset(io.StringIO("a,b\r1,2\r3,4\r"))
        with pytest.raises(ValueError, match=r"^row 2: new-line character"):
            load_dataset(io.StringIO("a,b\n1,2\n\n3,4\r5,6\n"))

    def test_blank_lines_ignored(self):
        data = load_dataset(io.StringIO("a,b\n1,2\n\n3,4\n\n"))
        assert data.sample_count == 2

    @pytest.mark.parametrize("lead", ["\n", " \n", "\t\r\n", "\n \n\t\n", "\r\r"])
    def test_blank_lines_before_the_header(self, lead, tmp_path):
        text = "a,b\n1,-0.0\n3,4.5\n"
        path = tmp_path / "t.csv"
        path.write_bytes((lead + text).encode("utf-8"))
        assert loadtxt_body(path) is not None  # loadtxt reads the body
        expected = load_dataset(io.StringIO(text))
        for source in (path, io.StringIO(lead + text, newline="")):
            data = load_dataset(source)
            assert data.columns == expected.columns == ("a", "b")
            assert data.values.tobytes() == expected.values.tobytes()

    @pytest.mark.parametrize("text", ["", "\n", "\n \n\t\n"])
    def test_only_blank_lines_is_empty_input(self, text, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        for source in (path, io.StringIO(text)):
            with pytest.raises(ValueError, match=r"^empty input: missing header row$"):
                load_dataset(source)

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "small.csv"
        # utf-8-sig writes the byte-order mark that Excel puts first
        for encoding in ("utf-8", "utf-8-sig"):
            path.write_text("x,y\n0.5,1.5\n2.5,3.5\n", encoding=encoding)
            data = load_dataset(path)
            assert data.columns == ("x", "y")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_and_fault_location(self, data):
        # a table of repr floats, blank lines anywhere (before the header
        # too), parses bit-identically
        t = data.draw(st.integers(2, 8), label="rows")
        n = data.draw(st.integers(2, 5), label="columns")
        finite = st.floats(allow_nan=False, allow_infinity=False)
        values = data.draw(
            st.lists(st.lists(finite, min_size=n, max_size=n), min_size=t, max_size=t)
        )
        names = [f"v{j}" for j in range(n)]
        lines = [",".join(repr(v) for v in row) for row in values]
        blanks = data.draw(st.lists(st.integers(0, t), max_size=4), label="blanks")
        lead = data.draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=3),
                         label="blank lines before the header")

        def render(rows):
            out = list(rows)
            for at in sorted(blanks, reverse=True):
                out.insert(at, "")
            return "\n".join(lead + [",".join(names)] + out) + "\n"

        parsed = load_dataset(io.StringIO(render(lines)))
        assert parsed.columns == tuple(names)
        assert np.array_equal(parsed.values, np.array(values))
        assert np.array_equal(np.signbit(parsed.values), np.signbit(values))

        # one bad cell: the message names its data row and its column
        i = data.draw(st.integers(0, t - 1), label="fault row")
        j = data.draw(st.integers(0, n - 1), label="fault column")
        fault = data.draw(st.sampled_from(["x1", "1..2", "nan", "-inf", "extra"]))
        cells = lines[i].split(",")
        if fault == "extra":
            cells.insert(j, "0.0")
            expected = rf"^row {i + 1}: expected {n} fields, got {n + 1}$"
        else:
            cells[j] = fault
            expected = rf"^row {i + 1}, column 'v{j}': "
        lines[i] = ",".join(cells)
        with pytest.raises(ValueError, match=expected):
            load_dataset(io.StringIO(render(lines)))


def outcome(read):
    """What a load gives: columns, shape and raw bytes (so -0.0 differs from
    0.0), or the error's type and message."""
    try:
        data = read()
    except (ValueError, csv.Error) as error:
        return type(error), str(error)
    return data.columns, data.values.shape, data.values.tobytes()


def loadtxt_body(path):
    """(columns, values) of a CSV file whose header one csv reader parses,
    as load_dataset does, and whose body _loadtxt_body then reads; None
    where _loadtxt_body leaves the body to that reader."""
    with open(path, "r", encoding="utf-8-sig", newline="",
              errors="surrogateescape") as handle:
        reader = csv.reader(handle)
        columns = _header(reader)
        values = _loadtxt_body(path, reader.line_num, len(columns))
    return None if values is None else (columns, values)


# Cells loadtxt must either parse exactly as float() does or leave to the
# csv reader: spaces, signed zeros, specials, underscores,
# comments, non-ASCII digits and whitespace, quotes, empty and junk cells.
ODD_CELLS = ["-0.0", " 1.5 ", "\t2", "3\u3000", "\xa04", "nan", "-inf", "Infinity",
             "1e400", "1_0", "nan(1)", "#1", "#", "\u0661", "", "x", "1.", ".5",
             '"7"', '"1,5"', "\ufeff1"]


class TestIngestFastPath:
    @pytest.mark.parametrize("cell, parsed", [
        ("1_0", 10.0), ("\u0661", 1.0), ("nan(1)", None), ("#1", None), ("#", None),
    ])
    def test_loadtxt_rejects_what_float_may_accept(self, cell, parsed, tmp_path):
        text = f"a,b\n{cell},1\n2,3\n"
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        assert loadtxt_body(path) is None
        if parsed is None:
            with pytest.raises(ValueError, match=rf"^row 1, column 'a': cannot parse"):
                load_dataset(path)
        else:
            assert load_dataset(path).values[0, 0] == parsed

    @pytest.mark.parametrize("text", [
        "a,b\n",  # header only: loadtxt warns
        "a\n",
        "a,b\n1,2\n   \n3,4\n",  # whitespace-only line: csv skips it
        "a,b\n1,2,3\n4,5,6\n",  # every row has a field the header lacks
    ])
    def test_falls_back_where_loadtxt_cannot_tell(self, text, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        assert loadtxt_body(path) is None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = outcome(lambda: load_dataset(path))
        assert caught == []
        assert got == outcome(lambda: _parse_csv(io.StringIO(text)))

    def test_plain_files_take_the_fast_path(self, tmp_path):
        text = "\ufeffa, b\r\n 1 ,-0.0\r\n\r\nInfinity,2\r\n3,4"
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        columns, values = loadtxt_body(path)
        assert columns == ("a", "b")  # the byte-order mark is dropped
        assert values.tobytes() == np.array([[1, -0.0], [np.inf, 2], [3, 4]]).tobytes()

    @pytest.mark.parametrize("text", [
        "a,b\n1,2\r3,4\n",  # LF after the header, a bare CR in the body
        "a,b\r\n1,2\r3,4\n5,6\r\n",
        "a,b\r1,2\n\r3,4\r\n",
    ])
    def test_mixed_line_ends_parse_alike(self, text, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        columns, values = loadtxt_body(path)
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            expected = _parse_csv(handle)
        assert columns == expected.columns
        assert values.tobytes() == expected.values.tobytes()
        assert load_dataset(path).values.tobytes() == expected.values.tobytes()

    @pytest.mark.parametrize("text, name", [
        ('"a",b\n1,2\n3,4\n', "a"),
        ('"a,q",b\n1,2\n3,4\n', "a,q"),
        ('"a\nq",b\n1,2\n3,4\n', "a\nq"),  # a name over two lines (LF)
        ('"a\r\nq",b\r\n1,2\r\n3,4\r\n', "a\r\nq"),  # CRLF inside the quotes
    ])
    def test_quoted_header_then_loadtxt_reads_the_body(self, text, name, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        bodies = []

        def body(*args):
            bodies.append(_loadtxt_body(*args))
            return bodies[-1]

        with mock.patch.object(dataset, "_loadtxt_body", side_effect=body):
            got = outcome(lambda: load_dataset(path))
        assert bodies[0] is not None  # loadtxt read the body, no fallback
        assert got[0] == (name, "b")
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            assert got == outcome(lambda: _parse_csv(handle))

    def test_header_byte_not_valid_utf8(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b'a,"b\n\xff",c\n1,2,3\n4,5,6\n')
        with pytest.raises(ValueError, match=r"^header row: column 2 is not valid UTF-8$"):
            load_dataset(path)

    @pytest.mark.parametrize("text", [
        "a,b\n1,2\n3,4\n",  # loadtxt reads the body
        '"a\nq",b\n1,2\n3,4\n',
        "a,b\n1,2\n   \n3,4\n",  # the csv reader goes on through the body
        "a,b\n1,x\n3,4\n",
        "a,b\n",
    ])
    def test_one_open_and_one_header_reader_per_path(self, text, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        with mock.patch("coptree.dataset.open", side_effect=open, create=True) as opened, \
                mock.patch("csv.reader", side_effect=csv.reader) as readers:
            got = outcome(lambda: load_dataset(path))
        assert (opened.call_count, readers.call_count) == (1, 1)
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            assert got == outcome(lambda: _parse_csv(handle))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_validating_parser(self, data, tmp_path_factory):
        n = data.draw(st.integers(1, 4), label="columns")
        t = data.draw(st.integers(0, 5), label="rows")
        rarely = st.sampled_from([True] + [False] * 5)  # most tables stay plain
        names = [f"c{j}" for j in range(n)]
        if data.draw(st.booleans(), label="spaced header"):
            names = [f" {name} " for name in names]
        if data.draw(rarely, label="quoted header"):
            names[0] = data.draw(st.sampled_from(['"c0,q"', '"c0\nq"', '"c0\r\n1"']))
        if n > 1 and data.draw(rarely, label="short header"):
            names.pop()
        cell = st.floats(allow_nan=False, allow_infinity=False).map(repr)
        if data.draw(rarely, label="odd cells"):
            cell = st.one_of(cell, st.sampled_from(ODD_CELLS))
        rows = data.draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                  min_size=t, max_size=t), label="cells")
        if rows and data.draw(rarely, label="quoted comma column"):
            j = data.draw(st.integers(0, n - 1))
            for row in rows:
                row[j] = '"1,5"'
        lines = [",".join(row) for row in rows]
        if lines and data.draw(rarely, label="ragged"):
            i = data.draw(st.integers(0, len(lines) - 1))
            short = n > 1 and data.draw(st.booleans(), label="short row")
            lines[i] = ",".join(rows[i][:-1]) if short else lines[i] + ",0"
        for _ in range(data.draw(st.integers(0, 3), label="extra lines")):
            at = data.draw(st.integers(0, len(lines)))
            lines.insert(at, "\t " if data.draw(rarely, label="whitespace line") else "")
        bom = "\ufeff" if data.draw(st.booleans(), label="bom") else ""
        ending = st.sampled_from(["\n", "\r\n", "\r"])
        if data.draw(rarely, label="mixed line ends"):
            ends = data.draw(st.lists(ending, min_size=len(lines) + 1,
                                      max_size=len(lines) + 1))
        else:
            ends = [data.draw(ending, label="line end")] * (len(lines) + 1)
        text = bom + "".join(line + end for line, end in
                             zip([",".join(names)] + lines, ends))
        if not data.draw(st.booleans(), label="final line end"):
            text = text[:-len(ends[-1])]

        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            expected = outcome(lambda: _parse_csv(handle))
        assert outcome(lambda: load_dataset(path)) == expected
        fast = loadtxt_body(path)
        if fast is not None:
            assert outcome(lambda: Dataset(*fast)) == expected


class TestDatasetValidation:
    def test_unknown_column_lookup(self):
        data = make_dataset([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="unknown column"):
            data.column_index("nope")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            make_dataset([[1, 2], [3, 4]], names=("a", ""))

    @pytest.mark.parametrize("names", [(1, 2), ("", "b"), ("a", None), (b"a", "b")])
    def test_one_name_rule_for_every_named_type(self, names):
        # Dataset, WeightMatrix and DependenceTree share _unique_names
        with pytest.raises(ValueError, match="^column names must be nonempty strings$"):
            make_dataset([[1, 2], [3, 4]], names=names)
        for kind in ("column", "variable", "node"):
            with pytest.raises(ValueError, match=f"^{kind} names must be nonempty strings$"):
                dataset._unique_names(names, kind)

    def test_nonfinite_matrix_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            make_dataset([[1, np.inf], [3, 4]])


# Each builds a new object holding equal arrays on every call.
ARRAY_TYPES = {
    "Dataset": lambda: make_dataset([[1, 2], [3, 4], [5, 7]]),
    "RankMatrix": lambda: RankMatrix(np.array([[1, 2], [2, 1], [3, 3]])),
    "CopulaGrid": lambda: CopulaGrid(2, 1, "mass", np.array([0.5, 0.5])),
    "KernelDensity": lambda: KernelDensity(np.array([0.0, 1.0, 3.0]), 0.5),
    "WeightMatrix": lambda: WeightMatrix(("a", "b"), "rho_abs", 2,
                                         np.array([[0.0, -0.5], [-0.5, 0.0]])),
}


@pytest.mark.parametrize("build", ARRAY_TYPES.values(), ids=ARRAY_TYPES.keys())
def test_types_holding_arrays_compare_by_identity(build):
    # the generated __eq__ compared the arrays ("truth value ... is
    # ambiguous") and __hash__ hashed them (unhashable ndarray)
    first, second = build(), build()
    assert first == first and not first != first
    assert first != second and not first == second
    assert hash(first) == hash(first)
    assert len({first, second, first}) == 2


class TestRankTransform:
    def test_sort_order(self):
        data = make_dataset([[3.1, 0], [1.2, 0], [2.7, 0]], names=("a", "b"))
        # second column is all ties; first column carries the example
        ranks = RankMatrix(column_ranks(data.values))
        assert ranks.ranks[:, 0].tolist() == [3, 1, 2]

    def test_stable_ties_use_row_order(self):
        data = make_dataset([[1.0, 9], [1.0, 8], [2.0, 7]])
        assert RankMatrix(column_ranks(data.values)).ranks[:, 0].tolist() == [1, 2, 3]

    def test_reversed_column(self):
        data = make_dataset([[5, 1], [4, 2], [3, 3], [2, 4], [1, 5]])
        ranks = RankMatrix(column_ranks(data.values))
        assert ranks.ranks[:, 0].tolist() == [5, 4, 3, 2, 1]

    @pytest.mark.parametrize("tie_break", ["stable", "random"])
    def test_columns_are_permutations(self, tie_break):
        rng = np.random.default_rng(5)
        values = np.round(rng.standard_normal((40, 4)), 1)  # ties likely
        ranks = column_ranks(values, tie_break=tie_break)
        for j in range(4):
            assert sorted(ranks[:, j].tolist()) == list(range(1, 41))

    @pytest.mark.parametrize("tie_break", ["stable", "random"])
    def test_monotone_transform_invariance(self, tie_break):
        rng = np.random.default_rng(6)
        values = np.round(rng.standard_normal((60, 3)), 1)
        base = column_ranks(values, tie_break=tie_break, tie_seed=3)
        for transform in (np.exp, lambda v: v**3, lambda v: 2.5 * v + 7.0):
            moved = column_ranks(transform(values), tie_break=tie_break, tie_seed=3)
            assert np.array_equal(base, moved)

    def test_idempotent_on_ranks(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((30, 3))
        first = column_ranks(values)
        again = column_ranks(first.astype(float))
        assert np.array_equal(first, again)

    def test_random_ties_match_stable_without_ties(self):
        rng = np.random.default_rng(8)
        values = rng.standard_normal((50, 3))  # continuous: no ties
        assert np.array_equal(
            column_ranks(values, "stable"), column_ranks(values, "random", tie_seed=9)
        )

    def test_random_ties_decouple_shared_blocks(self):
        # two columns tied on the same rows should not look comonotone
        # just because ties fall in row order
        values = np.zeros((200, 2))
        values[150:, 0] = 1.0
        values[150:, 1] = 1.0
        stable = column_ranks(values, "stable")
        randomized = column_ranks(values, "random", tie_seed=0)
        corr_stable = np.corrcoef(stable[:, 0], stable[:, 1])[0, 1]
        corr_random = np.corrcoef(randomized[:, 0], randomized[:, 1])[0, 1]
        assert corr_stable > 0.99
        assert corr_random < 0.8

    def test_bad_tie_break(self):
        with pytest.raises(ValueError, match="tie_break"):
            column_ranks(np.zeros((3, 2)), "sideways")

    def test_rank_matrix_validates_permutations(self):
        with pytest.raises(ValueError, match="not a permutation"):
            RankMatrix(ranks=np.array([[1, 1], [1, 2]]))

    def test_rank_matrix_rejects_fractional_ranks(self):
        # checked before the int64 cast, which would turn 1.5 into 1
        with pytest.raises(ValueError, match="column 1 is not a permutation of 1..2"):
            RankMatrix(ranks=np.array([[1.0, 1.5], [2.0, 2.0]]))
        ranks = RankMatrix(ranks=np.array([[2.0, 1.0], [1.0, 2.0]])).ranks
        assert ranks.dtype == np.int64

    def test_negative_tie_seed_rejected_for_random_ties(self):
        values = np.zeros((3, 2))
        with pytest.raises(ValueError, match="tie_seed must be >= 0, got -1"):
            column_ranks(values, "random", tie_seed=-1)
        # the seed is not used by stable ranks
        assert np.array_equal(column_ranks(values, "stable", tie_seed=-1),
                              column_ranks(values, "stable"))

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", None, True, np.True_])
    def test_non_integer_tie_seed_rejected_for_random_ties(self, seed):
        values = np.zeros((3, 2))
        with pytest.raises(ValueError, match="tie_seed must be an integer, got"):
            column_ranks(values, "random", tie_seed=seed)
        assert np.array_equal(column_ranks(values, "stable", tie_seed=seed),
                              column_ranks(values, "stable"))
        # numpy integers are integers
        assert np.array_equal(column_ranks(values, "random", tie_seed=np.int64(3)),
                              column_ranks(values, "random", tie_seed=3))


# values that sort or compare unusually: NaN sorts last, -0.0 == 0.0
SPECIAL_VALUES = np.array([np.nan, -np.inf, np.inf, -0.0, 0.0, 1.0, -1.0])


class TestBlockRanks:
    """column_ranks sorts blocks of columns at once; the per-column loop it
    replaced is kept as ``literal_column_ranks``, and the ranks must equal
    it exactly, random tie order included."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_per_column_oracle(self, data):
        t = data.draw(st.integers(0, 60), label="T")
        n = data.draw(st.integers(1, 6), label="N")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        values = rng.standard_normal((t, n))
        for j in range(n):
            kind = data.draw(st.sampled_from(["continuous", "levels", "special"]))
            if kind == "levels":
                values[:, j] = rng.integers(0, data.draw(st.integers(1, 4)), t)
            elif kind == "special":
                mask = rng.random(t) < data.draw(st.sampled_from([0.3, 1.0]))
                values[mask, j] = rng.choice(SPECIAL_VALUES, np.count_nonzero(mask))
        # from one column per block up to every column in one block
        cells = data.draw(st.sampled_from([1, max(t, 1), 3 * max(t, 1), 2**16]))
        tie_seeds = data.draw(st.lists(st.integers(0, 2**64), min_size=1, max_size=3))
        with mock.patch.object(dataset, "_MAX_RANK_BLOCK_CELLS", cells):
            assert np.array_equal(column_ranks(values, "stable"),
                                  literal_column_ranks(values, "stable"))
            for tie_seed in tie_seeds:
                assert np.array_equal(column_ranks(values, "random", tie_seed),
                                      literal_column_ranks(values, "random", tie_seed))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_untied_columns_draw_nothing(self, data):
        # inserting columns without ties anywhere in a tied table leaves
        # every tied column's random tie order as it was
        t = data.draw(st.integers(2, 60), label="T")
        n = data.draw(st.integers(1, 5), label="N")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        tied = rng.integers(0, data.draw(st.integers(1, 4)), (t, n)).astype(float)
        tied[1] = tied[0]
        extra = data.draw(st.lists(st.integers(0, 2), min_size=n + 1, max_size=n + 1),
                          label="columns inserted before each tied column")
        parts, kept = [], []
        for j in range(n + 1):
            parts += [rng.permutation(t) + 0.5 for _ in range(extra[j])]
            if j < n:
                kept.append(len(parts))
                parts.append(tied[:, j])
        mixed = np.column_stack(parts)
        inserted = np.setdiff1d(np.arange(len(parts)), kept)
        tie_seed = data.draw(st.integers(0, 2**64), label="tie seed")
        for cells in (1, t, 3 * t, 2**16):
            with mock.patch.object(dataset, "_MAX_RANK_BLOCK_CELLS", cells):
                ranks = column_ranks(mixed, "random", tie_seed)
                assert np.array_equal(ranks[:, kept], column_ranks(tied, "random", tie_seed))
                assert np.array_equal(ranks[:, inserted],
                                      column_ranks(mixed[:, inserted], "stable"))

    @pytest.mark.parametrize("tie_break", ["stable", "random"])
    def test_empty_table(self, tie_break):
        # T = 0 rows: the block width must not divide by zero
        assert column_ranks(np.zeros((0, 3)), tie_break).shape == (0, 3)

    @pytest.mark.parametrize("shape", [(50000, 16), (500, 300)])
    def test_matches_oracle_at_benchmark_shapes(self, shape):
        # dependent Gaussian columns, every fourth rounded to a few levels
        rng = np.random.default_rng(11)
        values = rng.standard_normal(shape) @ np.triu(rng.standard_normal((shape[1],) * 2))
        values[:, 3::4] = np.round(values[:, 3::4] * 2.0) / 2.0
        for tie_break, tie_seed in (("stable", 0), ("random", 0), ("random", 1)):
            assert np.array_equal(column_ranks(values, tie_break, tie_seed),
                                  literal_column_ranks(values, tie_break, tie_seed))

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_learn_ranks_are_the_public_ranks(self, data):
        # learn reads its ranks through the .T view of an N x T array, and
        # column_ranks returns a C-ordered copy: both must be the oracle's
        # ranks, with one column per block and with many columns per block
        cells = dataset._MAX_RANK_BLOCK_CELLS
        if data.draw(st.booleans(), label="one column per block"):
            t = data.draw(st.integers(cells // 2 + 1, cells // 2 + 200), label="T")
            n = data.draw(st.integers(2, 4), label="N")
        else:
            t = data.draw(st.integers(100, 400), label="T")
            n = data.draw(st.integers(cells // t + 1, 2 * (cells // t) + 1), label="N")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        values = rng.standard_normal((t, n))
        if data.draw(st.booleans(), label="tied"):
            values[:, ::2] = rng.integers(0, data.draw(st.integers(1, 5)), (t, (n + 1) // 2))
        tie_seed = data.draw(st.integers(0, 2**64), label="tie seed")
        ranks = measures._learn_ranks(make_dataset(values), 0, tie_seed)[0]
        assert ranks.flags.f_contiguous  # the view, not a copy
        public = column_ranks(values, "random", tie_seed)
        assert public.flags.c_contiguous
        assert np.array_equal(ranks, public)
        assert np.array_equal(ranks, literal_column_ranks(values, "random", tie_seed))
        assert column_ranks(values, "stable").flags.c_contiguous

    def test_tie_orders_follow_the_published_splitmix64_vector(self):
        # SplitMix64 seeded with 1234567: the reference generator's first
        # five outputs, which key rows 0-4 of the tied column with ordinal 0
        outputs = [6457827717110365317, 3203168211198807973, 9817491932198370423,
                   4593380528125082431, 16408922859458223821]
        assert [splitmix64(1234567 + i * 0x9E3779B97F4A7C15) for i in range(1, 6)] == outputs
        # their low 3 bits replaced by the row, in ascending key order
        assert sorted(range(5), key=lambda r: (outputs[r] & ~7) | r) == [1, 3, 0, 2, 4]
        orders = dataset._tie_orders(1234567, np.array([0]), 5)
        assert orders.dtype == np.int64
        assert orders.tolist() == [[1, 3, 0, 2, 4]]
        # the seed is used mod 2^64
        assert np.array_equal(dataset._tie_orders(1234567 + 2**64, np.array([0]), 5), orders)

    @pytest.mark.parametrize("t", [2, 8, 9, 300])
    def test_tie_orders_match_the_literal_keys(self, t):
        # counters and seeds near 2^64 wrap in uint64 as in Python integers
        ordinals = np.array([0, 1, 5, 2**40, 2**63 // t])
        for tie_seed in (0, 3, 2**64 - 1, 2**64 + 3, 2**70):
            assert np.array_equal(
                dataset._tie_orders(tie_seed, ordinals, t),
                [literal_tie_order(tie_seed, int(k), t) for k in ordinals])

    def test_tie_orders_are_uniform_over_seeds(self):
        # 4800 seeds of a 4 x 2 all-tied table: each of the 24 orders of
        # column 0 and each of the 16 joint first ranks of the two columns
        # should take a uniform share; the bounds sit near the 0.1% upper
        # quantiles of chi-square with 23 and 15 degrees of freedom
        orders, firsts = np.zeros(24), np.zeros(16)
        codes = {order: i for i, order in enumerate(itertools.permutations(range(1, 5)))}
        for tie_seed in range(4800):
            ranks = column_ranks(np.zeros((4, 2)), "random", tie_seed)
            orders[codes[tuple(ranks[:, 0].tolist())]] += 1
            firsts[4 * (ranks[0, 0] - 1) + ranks[0, 1] - 1] += 1
        assert np.all(orders > 0)
        assert np.sum((orders - 200) ** 2 / 200) < 49.7
        assert np.sum((firsts - 300) ** 2 / 300) < 37.7

    @pytest.mark.parametrize("tie_seed, digest", [
        pytest.param(0, "5802ab47ae7b9fc5ee9b56f8b47fb5140d9dbadf3c4f9c8885efd0f18640aecb", id="0"),
        pytest.param(1, "f14ffc794750db6b18c998b7ede59d62e543f834ebcef7bb9d3221e911198851", id="1"),
    ])
    def test_random_tie_stream_is_pinned(self, housing, tie_seed, digest):
        # the package's own tie order (SplitMix64 keys) must not move: a
        # change to it changes every randomized result, and fails here
        ranks = column_ranks(housing.values, "random", tie_seed)
        assert hashlib.sha256(ranks.astype("<i8").tobytes()).hexdigest() == digest

    def test_random_tie_stream_is_pinned_on_a_mixed_table(self):
        # every housing column is tied; here untied columns come before
        # tied ones, so the pin also fixes which columns draw
        rows = np.arange(13.0)
        values = np.column_stack([(rows * 5) % 13, rows % 4, -rows, rows // 3,
                                  np.sqrt(rows), (rows * rows) % 5])
        ranks = column_ranks(values, "random", 0)
        assert (hashlib.sha256(ranks.astype("<i8").tobytes()).hexdigest()
                == "5ed7a934a95768f502bf42bae1d24d7ee6e8711fcf30bc609d4f8da8509d44bb")


def _spec(samples=10, seed=0, variable=2):
    return SyntheticSpec(
        blocks=(CopulaBlock((1, variable), "independence"),),
        margins=(MarginSpec("standard_normal"),) * 2,
        samples=samples,
        seed=seed,
    )


# (name in the message, call taking the argument, an integer out of range)
INTEGER_ARGUMENTS = {
    "column_ranks tie_seed":
        ("tie_seed", lambda x: column_ranks(np.zeros((3, 2)), "random", x), -1),
    "generate_synthetic seed": ("seed", lambda x: generate_synthetic(_spec(), seed=x), -1),
    "sample_gaussian_copula count":
        ("count", lambda x: sample_gaussian_copula(np.eye(2), x, 0), 0),
    "sample_gaussian_copula seed":
        ("seed", lambda x: sample_gaussian_copula(np.eye(2), 3, x), -1),
    "SyntheticSpec samples": ("samples", lambda x: _spec(samples=x), 1),
    "SyntheticSpec seed": ("seed", lambda x: _spec(seed=x), -1),
    "CopulaBlock vars": ("block vars", lambda x: _spec(variable=x), 0),
    "default_lattice_order": ("sample_count", default_lattice_order, 1),
}


class TestIntegerArguments:
    """Every integer argument takes Python and numpy integers, never a bool."""

    @pytest.mark.parametrize("call, value", [
        pytest.param(call, value, id=f"{call}-{value!r}")
        for call in sorted(INTEGER_ARGUMENTS)
        for value in (True, np.True_, 2.5, 2.0, "3", None, "out of range")
        # generate_synthetic's seed=None keeps the spec's seed
        if not (call == "generate_synthetic seed" and value is None)
    ])
    def test_rejected_with_its_name(self, call, value):
        name, function, out_of_range = INTEGER_ARGUMENTS[call]
        if isinstance(value, str) and value == "out of range":
            value = out_of_range
        with pytest.raises(ValueError, match=f"^{name} must be "):
            function(value)

    @pytest.mark.parametrize("call", sorted(INTEGER_ARGUMENTS))
    def test_numpy_integers_accepted(self, call):
        _, function, out_of_range = INTEGER_ARGUMENTS[call]
        function(np.int64(out_of_range + 2))

    @pytest.mark.parametrize("rate", [True, np.True_])
    def test_bool_is_not_a_rate(self, rate):
        with pytest.raises(ValueError, match="rate must be"):
            MarginSpec("exponential", rate)

"""Numeric sample ingestion and rank transformation.

Every estimator in this package consumes per-column ranks, so this module
owns the two gateway steps: validating a raw table into a :class:`Dataset`
and turning it into a :class:`RankMatrix` whose columns are permutations
of ``1..T``.
"""
from __future__ import annotations

import csv
import numbers
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "RankMatrix",
    "load_dataset",
    "rank_transform",
    "column_ranks",
]

# Elements per block of column_ranks: bounds the (columns x T) order, key
# and permutation blocks it sorts at once.
_MAX_RANK_BLOCK_CELLS = 2**16

# A byte that is not valid UTF-8 decodes, under errors="surrogateescape",
# to one of these lone surrogates.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _integer(value, name: str, lowest: int, highest: int | None = None) -> int:
    """``value`` as an int, once it is checked to be a Python or numpy
    integer, never a bool, in [lowest, highest] (no upper bound if
    ``highest`` is None).  Raises ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < lowest or (highest is not None and value > highest):
        bound = f">= {lowest}" if highest is None else f"in [{lowest}, {highest}]"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


def _real(value) -> bool:
    """Whether ``value`` is a real number; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _unique_names(names, kind: str) -> tuple:
    """``names`` as a tuple, once no name is found twice in it.  Raises
    ValueError naming the repeated ones, as ``kind`` names."""
    names = tuple(names)
    if len(set(names)) != len(names):
        dupes = sorted({name for name in names if names.count(name) > 1})
        raise ValueError(f"duplicate {kind} name(s): {', '.join(dupes)}")
    return names


@dataclass(frozen=True)
class Dataset:
    """A T x N table of finite reals with named columns.

    Rows are i.i.d. observations, columns are variables.  Instances are
    validated on construction and treated as immutable.
    """

    columns: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        t, n = values.shape
        if t < 2:
            raise ValueError(f"need at least 2 rows, got {t}")
        if n < 2:
            raise ValueError(f"need at least 2 columns, got {n}")
        columns = tuple(self.columns)
        if len(columns) != n:
            raise ValueError(f"{len(columns)} column names for {n} columns")
        if any(not isinstance(c, str) or not c for c in columns):
            raise ValueError("column names must be nonempty strings")
        _unique_names(columns, "column")
        if not np.all(np.isfinite(values)):
            i, j = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(
                f"row {i + 1}, column {columns[j]!r}: value is not finite"
            )
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "values", values)

    @property
    def sample_count(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise ValueError(f"unknown column {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_index(name)]


def _check_permutations(ranks: np.ndarray, names) -> np.ndarray:
    """``ranks`` (T x N) as int64 once every column is checked to be a
    permutation of 1..T; the first that is not is named by ``names``."""
    t = ranks.shape[0]
    valid = np.all(np.sort(ranks, axis=0) == np.arange(1, t + 1)[:, np.newaxis], axis=0)
    if not np.all(valid):
        raise ValueError(f"{names[np.argmin(valid)]} is not a permutation of 1..{t}")
    return ranks.astype(np.int64)


@dataclass(frozen=True)
class RankMatrix:
    """Per-column ranks of a dataset; each column is a permutation of 1..T."""

    ranks: np.ndarray

    def __post_init__(self):
        ranks = np.asarray(self.ranks)
        if ranks.ndim != 2 or 0 in ranks.shape:
            raise ValueError(f"ranks must be 2-D and non-empty, got shape {ranks.shape}")
        names = [f"column {j}" for j in range(ranks.shape[1])]
        object.__setattr__(self, "ranks", _check_permutations(ranks, names))

    @property
    def sample_count(self) -> int:
        return self.ranks.shape[0]

    @property
    def dim(self) -> int:
        return self.ranks.shape[1]


def load_dataset(source) -> Dataset:
    """Read a comma-separated table with a header row into a Dataset.

    Parameters
    ----------
    source : str, os.PathLike or text file object
        Path to a CSV file, or an open text stream.  UTF-8 (a leading
        byte-order mark in a file is dropped), comma separator, one header
        row, decimal point.  Records follow the csv module's default
        dialect: a field that opens with a double quote runs to the next
        lone one and may hold commas, line breaks and doubled quotes, and
        the quotes are removed, so a header name may hold a comma or span
        lines and a quoted cell such as ``"7"`` reads as 7.0; a quote
        anywhere else in a field is kept.  Header names are then stripped
        of surrounding whitespace.  Blank lines are skipped.  A file
        is decoded with ``errors="surrogateescape"``, so a byte that is not
        valid UTF-8 is reported where it lies, as "row i, column 'c': not
        valid UTF-8" or "header row: column j is not valid UTF-8".

    Returns
    -------
    Dataset
        Validated dataset with row order preserved.

    Raises
    ------
    ValueError
        On a non-numeric or non-finite cell (reported with row and column),
        a ragged row, duplicate column names, or fewer than 2 rows/columns.
        Also on a record the csv reader rejects, such as a cell longer
        than its field limit (131072 characters) or, in a stream opened
        without ``newline=""``, a bare CR inside a line; the message is
        "row i: ..." or "header row: ..." followed by the csv reader's.
        "row i" is the i-th data row: the header and blank lines are not
        counted.

    Notes
    -----
    One csv reader parses the header, of a path or a stream alike.  For a
    path, ``np.loadtxt`` then reads only the body, in chunks, skipping the
    lines the header spanned.  Whenever it cannot vouch for the result (a
    cell or line it rejects, a field count other than the header's, no data
    rows), the same reader goes on through the body, so a path gives the
    same values and error messages either way.  A stream is read by that
    reader alone.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8-sig", newline="",
                  errors="surrogateescape") as handle:
            return _parse_csv(handle, source)
    return _parse_csv(source)


def _header(reader) -> tuple[str, ...]:
    """The stripped column names of the header record of a csv reader."""
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty input: missing header row") from None
    except csv.Error as error:
        raise ValueError(f"header row: {error}") from None
    for j, name in enumerate(header):
        if _ESCAPED_BYTE.search(name):
            raise ValueError(f"header row: column {j + 1} is not valid UTF-8")
    return tuple(name.strip() for name in header)


def _loadtxt_body(path, skip: int, n: int):
    """The T x n body of the CSV file at ``path``, the lines after its first
    ``skip``, parsed by ``np.loadtxt``.

    None where only the csv reader can tell what the text means: a line or
    cell loadtxt rejects, no data rows (loadtxt warns), or a field count
    other than ``n``.  Every cell loadtxt accepts, ``float`` accepts with
    the same bits.  loadtxt ends a line at any of LF, CR and CRLF, as csv
    does on a handle opened with ``newline=""``, so ``skip`` lines are the
    header's and whatever this returns, the csv reader returns too.
    loadtxt decodes the whole file strictly, so a byte that is not valid
    UTF-8 anywhere raises its UnicodeDecodeError, a ValueError.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.loadtxt(path, delimiter=",", skiprows=skip,
                                encoding="utf-8-sig", comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    return values if values.shape[1] == n else None


def _parse_csv(handle, path=None) -> Dataset:
    # Only what Dataset cannot know is checked here: the header, the field
    # count and the text of each cell.  Dataset checks the rest.
    reader = csv.reader(handle)
    columns = _header(reader)
    n = len(columns)
    if path is not None:
        values = _loadtxt_body(path, reader.line_num, n)
        if values is not None:
            return Dataset(columns, values)
    rows = []
    try:
        for record in reader:
            if not record or (len(record) == 1 and not record[0].strip()):
                continue  # ignore blank lines
            if len(record) == n:
                try:
                    rows.append([float(cell) for cell in record])
                    continue
                except ValueError:
                    pass
            raise _record_error(record, len(rows) + 1, columns)
    except csv.Error as error:
        # the record being read when csv failed is data row len(rows) + 1
        raise ValueError(f"row {len(rows) + 1}: {error}") from None
    return Dataset(columns, np.array(rows, dtype=float).reshape(len(rows), n))


def _record_error(record, i: int, columns) -> ValueError:
    """The error of data row i, a record with a field count other than the
    header's or a cell ``float`` rejects.  A byte that is not valid UTF-8
    (no number holds one) is named first."""
    for name, cell in zip(columns, record):
        if _ESCAPED_BYTE.search(cell):
            return ValueError(f"row {i}, column {name!r}: not valid UTF-8")
    if len(record) != len(columns):
        return ValueError(f"row {i}: expected {len(columns)} fields, got {len(record)}")
    for name, cell in zip(columns, record):
        try:
            float(cell)
        except ValueError:
            break
    return ValueError(
        f"row {i}, column {name!r}: cannot parse {cell.strip()!r} as a number"
    )


def column_ranks(
    values: np.ndarray, tie_break: str = "stable", tie_seed: int = 0
) -> np.ndarray:
    """Rank each column of a T x N array; rank 1 = smallest value.

    Parameters
    ----------
    values : ndarray, shape (T, N)
    tie_break : {"stable", "random"}
        "stable" breaks ties by ascending row index.  "random" breaks ties
        in a seeded random order drawn independently per column, which
        removes the spurious cross-column dependence that shared row
        ordering induces between heavily tied columns.  Columns without
        ties get identical ranks under both modes and draw nothing.
    tie_seed : int
        Seed for the "random" mode, an integer >= 0; ignored for "stable".

    Returns
    -------
    ndarray of int64, shape (T, N)
        Each column is a permutation of 1..T.

    Notes
    -----
    Columns are ranked in blocks of at most ``_MAX_RANK_BLOCK_CELLS``
    elements.  One unstable sort orders every column of a block.  A column
    whose sorted values hold an equal neighbour (NaNs, which sort last,
    count as equal; so do -0.0 and 0.0) is sorted again on the distinct
    int64 key ``value code * T + tie position``: the value code is the
    dense rank of the value, the tie position the row index ("stable") or
    the row's position in the column's random permutation ("random").  Only
    tied columns draw one, as rows of one ``Generator.permuted`` call per
    block: the stream of one ``Generator.permutation(T)`` per tied column.
    So the ranks equal those of a stable sort of each column, each tied
    column shuffled first under "random".
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"values must be 2-D, got shape {values.shape}")
    if tie_break not in ("stable", "random"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    rng = None
    if tie_break == "random":
        rng = np.random.default_rng(_integer(tie_seed, "tie_seed", 0))
    t, n = values.shape
    ranks = np.empty((t, n), dtype=np.int64)
    positions = np.arange(1, t + 1, dtype=np.int64)
    width = max(1, _MAX_RANK_BLOCK_CELLS // max(t, 1))
    for lo in range(0, n, width):
        block = np.ascontiguousarray(values[:, lo : lo + width].T)
        order = np.argsort(block, axis=1)
        ordered = np.take_along_axis(block, order, axis=1)
        rises = ordered[:, 1:] != ordered[:, :-1]
        rises &= ~np.isnan(ordered[:, :-1])  # NaNs sort last, as one value
        tied = ~np.all(rises, axis=1)
        if np.any(tied):
            rows = order[tied]
            code = np.zeros(rows.shape, dtype=np.int64)
            np.cumsum(rises[tied], axis=1, out=code[:, 1:])
            code *= t
            if rng is None:
                key = code + rows
            else:
                perm = rng.permuted(np.broadcast_to(np.arange(t), rows.shape), axis=1)
                place = np.empty_like(perm)
                np.put_along_axis(place, perm, positions - 1, axis=1)
                key = code + np.take_along_axis(place, rows, axis=1)
            # the codes are already in order, so sorting the distinct keys
            # leaves them in place and orders each tie by its position
            key.sort(axis=1)
            key -= code
            order[tied] = key if rng is None else np.take_along_axis(perm, key, axis=1)
        np.put_along_axis(ranks[:, lo : lo + width].T, order, positions, axis=1)
    return ranks


def rank_transform(
    data: Dataset, tie_break: str = "stable", tie_seed: int = 0
) -> RankMatrix:
    """Convert a Dataset to per-column ranks.

    Rank 1 marks the smallest value in each column; ties are broken by
    ascending row index by default (see :func:`column_ranks` for the
    randomized alternative).  The output is invariant under any strictly
    increasing per-column transformation of the data.
    """
    return RankMatrix(ranks=column_ranks(data.values, tie_break, tie_seed))

"""Numeric sample ingestion and rank transformation.

Every estimator in this package consumes per-column ranks, so this module
owns the two gateway steps: validating a raw table into a :class:`Dataset`,
and ranks.  :func:`column_ranks` is where ranks are made, each column a
permutation of ``1..T`` by construction; :class:`RankMatrix` is where
ranks from outside are checked to be such permutations.  It also holds
the one name rule of every named type (:func:`_unique_names`) and the
builder through which the package makes its own validated types without
re-checking them (:func:`_unchecked`).
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
    "column_ranks",
]

# Elements per block of column_ranks: bounds the (columns x T) order, key
# and permutation blocks it sorts at once.
_MAX_RANK_BLOCK_CELLS = 2**16

# SplitMix64 (Steele, Lea & Flood 2014): the counter step (the golden
# ratio times 2^64) and the two multipliers of the output mix.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))

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
    """``names`` as a tuple, once each is a nonempty string and none is
    found twice.  Raises ValueError for the first rule broken, naming the
    names as ``kind`` names."""
    names = tuple(names)
    if any(not isinstance(name, str) or not name for name in names):
        raise ValueError(f"{kind} names must be nonempty strings")
    if len(set(names)) != len(names):
        dupes = sorted({name for name in names if names.count(name) > 1})
        raise ValueError(f"duplicate {kind} name(s): {', '.join(dupes)}")
    return names


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, every
    field of it, as given: its ``__post_init__`` checks do not run.  For
    values the package built valid by construction; a value from outside
    goes through the public constructor."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
        of surrounding whitespace.  Blank lines, empty or of whitespace
        only, are skipped before the header as after it.  A file
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
    lines the header and any blank lines before it spanned.  Whenever it cannot vouch for the result (a
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


def _blank(record) -> bool:
    """Whether a csv record is a blank line: no field, or one of whitespace."""
    return not record or (len(record) == 1 and not record[0].strip())


def _header(reader) -> tuple[str, ...]:
    """The stripped column names of the first record of a csv reader that
    is not blank (see :func:`_blank`)."""
    try:
        header = next(record for record in reader if not _blank(record))
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
    header's and those of the blank lines before it, and whatever this
    returns, the csv reader returns too.
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
            if _blank(record):
                continue
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
        Seed for the "random" mode, an integer >= 0 used mod 2^64;
        ignored for "stable".

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
    dense rank of the value, the tie position the row's position in the
    column's tie permutation.  That permutation is the identity under
    "stable", so the position is the row index, and a random one under
    "random" (:func:`_tie_orders`); both modes then take the same path.
    A random order sorts the rows by SplitMix64 keys of (``tie_seed`` mod
    2^64, the column's ordinal among the tied columns, counted left to
    right, and the row), so only tied columns draw one, and the same seed
    gives the same ranks on every numpy version and CPU; seeds 0 and 2^64
    give one order.
    So the ranks equal those of a stable sort of each column, each tied
    column shuffled first under "random".
    The ranks are made one row per column, in the N x T array of
    :func:`_rank_rows`, so each block's ranks are written to contiguous
    rows; the T x N result is a C-contiguous copy of its transpose.
    """
    return np.ascontiguousarray(_rank_rows(values, tie_break, tie_seed).T)


def _rank_rows(values, tie_break: str, tie_seed) -> np.ndarray:
    """The ranks of :func:`column_ranks`, checked and made as it says,
    held one row per column: an N x T int64 array whose row j ranks
    column j.  ``learn`` reads them through its T x N view ``.T``."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"values must be 2-D, got shape {values.shape}")
    if tie_break not in ("stable", "random"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    seed = _integer(tie_seed, "tie_seed", 0) if tie_break == "random" else None
    drawn = 0  # tied columns ranked so far: the ordinal of the next one
    t, n = values.shape
    ranks = np.empty((n, t), dtype=np.int64)
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
            # the identity under "stable", so ties keep their row order
            perm = (np.broadcast_to(np.arange(t), rows.shape) if seed is None
                    else _tie_orders(seed, np.arange(drawn, drawn + len(rows)), t))
            drawn += len(rows)
            place = np.empty_like(perm)
            np.put_along_axis(place, perm, positions - 1, axis=1)
            key = code + np.take_along_axis(place, rows, axis=1)
            # the codes are already in order, so sorting the distinct keys
            # leaves them in place and orders each tie by its position
            key.sort(axis=1)
            key -= code
            order[tied] = np.take_along_axis(perm, key, axis=1)
        np.put_along_axis(ranks[lo : lo + width], order, positions, axis=1)
    return ranks


def _tie_orders(seed: int, ordinals: np.ndarray, t: int) -> np.ndarray:
    """The random tie permutations of ``column_ranks``: row i is the order
    of the rows of the tied column with ordinal ``ordinals[i]``, shape
    (len(ordinals), t), int64.

    Row r of the tied column with ordinal k is keyed by the SplitMix64 mix
    of the counter ``seed + (k*t + r + 1) * 0x9E3779B97F4A7C15`` mod 2^64
    (Salmon et al. 2011's counter-based use of the generator), so its key
    is output number k*t + r + 1 of SplitMix64 seeded with ``seed``.  The
    low ``max(1, (t-1).bit_length())`` bits of each key are replaced by r,
    which makes the keys distinct; the rows in ascending key order are the
    permutation.  Every operand is ``np.uint64``, which wraps mod 2^64.
    """
    low = np.uint64((1 << max(1, (t - 1).bit_length())) - 1)
    key = ordinals.astype(np.uint64)[:, None] * np.uint64(t) + np.arange(1, t + 1, dtype=np.uint64)
    key *= _GOLDEN
    key += np.uint64(seed % 2**64)
    key ^= key >> np.uint64(30)
    key *= _MIX[0]
    key ^= key >> np.uint64(27)
    key *= _MIX[1]
    key ^= key >> np.uint64(31)
    key &= ~low
    key |= np.arange(t, dtype=np.uint64)
    key.sort(axis=1)
    return (key & low).astype(np.int64)

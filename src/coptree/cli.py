"""Command-line interface: learn, synth, and measure subcommands.

Exit codes: 0 success, 1 validation or I/O error, 2 a command-line usage
error (argparse's: an unknown command or ``--measure`` choice, a missing
required flag, a flag value of the wrong type) or an internal invariant
violation.  All randomness flows from the --seed / --tie-seed flags.
--tie-seed keys the package's own SplitMix64 tie order (the same on every
numpy version and CPU, the seed used mod 2^64), so ``learn`` and
``measure`` never import ``numpy.random``; only ``synth`` draws from it.
``learn`` and ``measure`` take their ranks and lattice order from
``measures._learn_ranks``, so ``measure`` prints an entry of the matrix
that ``learn`` spans.  ``learn`` opens its --json and --dot files before
it writes either, so one it cannot open leaves the other as it was, and
refuses a --json and --dot that resolve to one file, through a symlink or
a hard link, before it opens any.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import generate_synthetic, load_synthetic_spec
from .dataset import load_dataset
from .measures import _learn_ranks, _scores
from .structure import DependenceTree, learn_structure

__all__ = ["main", "build_parser", "tree_as_dict", "tree_as_dot"]

_MEASURE_FLAGS = {"rho": "rho_abs", "mi-cell": "mi_cell"}


def _add_scoring_flags(parser: argparse.ArgumentParser, default_measure: str) -> None:
    """The input and scoring flags that ``learn`` and ``measure`` share."""
    parser.add_argument("--input", required=True, help="input CSV path")
    parser.add_argument(
        "--measure", choices=sorted(_MEASURE_FLAGS), default=default_measure
    )
    parser.add_argument(
        "--lattice-order", type=int, default=0,
        help="copula grid resolution K (0 = auto, about 20 samples per cell)",
    )
    parser.add_argument(
        "--tie-seed", type=int, default=0,
        help="seed for randomized rank tie order (default 0)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coptree",
        description=(
            "Rank-based dependence analysis: pairwise copula measures and "
            "maximum spanning dependence trees."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="learn a dependence tree from a CSV file")
    _add_scoring_flags(learn, "mi-cell")
    learn.add_argument("--json", help="write the tree as JSON to this path")
    learn.add_argument("--dot", help="write the tree as DOT to this path")

    synth = sub.add_parser("synth", help="generate a synthetic CSV dataset")
    synth.add_argument("--spec", required=True, help="synthetic-spec JSON path")
    synth.add_argument("--output", required=True, help="output CSV path")
    synth.add_argument(
        "--seed", type=int, default=None,
        help="override the seed recorded in the spec file",
    )

    measure = sub.add_parser("measure", help="one pairwise dependence value")
    _add_scoring_flags(measure, "rho")
    measure.add_argument("--pair", required=True, help="two column names: A,B")
    return parser


def _parse_pair(text: str) -> tuple[str, str]:
    parts = tuple(name.strip() for name in text.split(","))
    if len(parts) != 2 or not all(parts):
        raise ValueError(f"--pair expects two column names, got {text!r}")
    if parts[0] == parts[1]:
        raise ValueError(f"--pair must name two distinct columns, got {text!r}")
    return parts


def tree_as_dict(tree: DependenceTree) -> dict:
    """JSON-ready dict: nodes, edges with weight and signed value,
    measure tag, lattice order, coverage ratio."""
    return {
        "nodes": list(tree.nodes),
        "edges": [
            {
                "u": e.u,
                "v": e.v,
                "weight": e.weight,
                "signed_value": e.signed_value,
            }
            for e in tree.edges
        ],
        "measure": tree.measure,
        "lattice_order": tree.lattice_order,
        "coverage_ratio": tree.coverage_ratio,
    }


def _dot_id(name: str) -> str:
    # A DOT quoted string escapes exactly one character, the double quote,
    # so a trailing backslash would escape the closing quote whatever
    # precedes it: no quoting can express such a name.
    if name.endswith("\\"):
        raise ValueError(
            f"column {name!r} ends in a backslash, which DOT cannot quote"
        )
    return '"' + name.replace('"', '\\"') + '"'


def tree_as_dot(tree: DependenceTree) -> str:
    """Undirected DOT graph with 4-decimal edge weight labels.

    Raises ValueError for a node name that ends in a backslash.
    """
    lines = ["graph deptree {"]
    for e in tree.edges:
        lines.append(f'  {_dot_id(e.u)} -- {_dot_id(e.v)} [label="{e.weight:.4f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_learn(args: argparse.Namespace) -> int:
    if args.json is not None and args.dot is not None and _same_file(args.json, args.dot):
        raise ValueError(f"--json and --dot name the same file: {args.json}")
    data = load_dataset(args.input)
    tree = learn_structure(
        data,
        measure=_MEASURE_FLAGS[args.measure],
        lattice_order=args.lattice_order,
        tie_seed=args.tie_seed,
    )
    payload = json.dumps(tree_as_dict(tree), indent=2) + "\n"
    outputs = [(args.json, payload)] if args.json is not None else []
    if args.dot is not None:
        outputs.append((args.dot, tree_as_dot(tree)))  # may refuse: write nothing yet
    if outputs:
        _write_all(outputs)
    else:
        sys.stdout.write(payload)
    return 0


def _same_file(a: str, b: str) -> bool:
    """Whether paths ``a`` and ``b`` resolve to one file: through
    symlinks (``os.path.realpath``), or, when both exist, as one inode
    (``os.path.samefile``, so hard links too)."""
    return os.path.realpath(a) == os.path.realpath(b) or (
        os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b))


def _write_all(outputs) -> None:
    """Write each (path, text) pair of ``outputs``, opening every path
    before writing any: one that cannot be opened leaves the others as
    they were, and the files this check created are removed."""
    created = []
    try:
        for path, _ in outputs:
            existed = os.path.exists(path)
            open(path, "a").close()
            if not existed:
                created.append(os.path.realpath(path))  # a symlink's new target
    except OSError:
        for path in created:
            os.remove(path)
        raise
    for path, text in outputs:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _header_cell(name: str, first: bool) -> str:
    # load_dataset decodes UTF-8, dropping a byte-order mark that opens the
    # file, strips each header name, and its csv reader splits at a comma
    # or line break and unquotes a name that opens with a quote
    if any("\ud800" <= c <= "\udfff" for c in name):
        reason = "UTF-8 cannot encode its lone surrogate"
    elif first and name.startswith("\ufeff"):
        reason = "it starts with U+FEFF, the byte-order mark that learn drops"
    elif any(c in name for c in ',\r\n') or name.startswith('"') or name != name.strip():
        reason = ("it holds a comma, CR or LF, starts with a double quote, or has "
                  "leading or trailing whitespace")
    else:
        return name
    raise ValueError(f"column {name!r} cannot be written as a CSV header name: {reason}")


def cmd_synth(args: argparse.Namespace) -> int:
    spec = load_synthetic_spec(args.spec)
    data = generate_synthetic(spec, seed=args.seed)
    # may refuse: write nothing yet
    header = ",".join(_header_cell(name, k == 0) for k, name in enumerate(data.columns))
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        for row in data.values:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    names = _parse_pair(args.pair)
    data = load_dataset(args.input)
    i, j = sorted(data.column_index(name) for name in names)
    a, b = data.columns[i], data.columns[j]
    measure = _MEASURE_FLAGS[args.measure]
    # rank the whole table once, as learn does, so a tied column takes
    # learn's tie order, and score the pair's two rank columns
    ranks, order = _learn_ranks(data, args.lattice_order, args.tie_seed)
    value = _scores(ranks[:, [i, j]], measure, order)[0, 1]
    if measure == "rho_abs":
        sys.stdout.write(f"rho({a}, {b}) = {value:.6f}\n")
    else:
        sys.stdout.write(f"{measure}({a}, {b}) = {value:.6f} [lattice_order={order}]\n")
    return 0


_COMMANDS = {"learn": cmd_learn, "synth": cmd_synth, "measure": cmd_measure}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as error:
        sys.stderr.write(f"error: {error}\n")
        return 1
    except Exception as error:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {error!r}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Run ``coptree.cli.main`` with spans on, then write the span summary.

Usage: python cli_traced.py SUMMARY_JSON learn --input ... (coptree CLI args)

The traced twin of ``python -m coptree.cli``: same arguments, same stdout
and exit code, plus the per-layer self times written to SUMMARY_JSON.
"""
import json
import sys

from spans import Tracer

import coptree.cli


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return coptree.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.summary(), handle)


if __name__ == "__main__":
    sys.exit(main())

"""DIMACS command-line front-end to the bundled CDCL solver.

Usage: ``python -m ldimkit.satshim <file.cnf>``.  Prints the standard
competition result lines and exit code: ``s SATISFIABLE`` with one ``v``
line holding every variable signed, then ``0`` (exit 10), or
``s UNSATISFIABLE`` (exit 20).  Exit 2 is a usage error, exit 3 an
unreadable or malformed file.
"""

from __future__ import annotations

import sys
from pathlib import Path

from .cdcl import solve_clauses
from .sat import parse_dimacs


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m ldimkit.satshim <file.cnf>", file=sys.stderr)
        return 2
    try:
        cnf = parse_dimacs(Path(argv[0]))
        model = solve_clauses(cnf.variable_count, cnf.clauses)
    except (OSError, ValueError) as exc:  # FormatError is a ValueError
        print(f"satshim: {argv[0]}: {exc}", file=sys.stderr)
        return 3
    if model is None:
        print("s UNSATISFIABLE")
        return 20
    true = set(model)
    signed = (v if v in true else -v for v in range(1, cnf.variable_count + 1))
    print("s SATISFIABLE")
    print("v " + " ".join(map(str, signed)) + " 0")
    return 10


if __name__ == "__main__":
    sys.exit(main())

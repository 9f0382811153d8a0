"""DIMACS command-line front-end to the bundled CDCL solver.

Usage: ``python -m ldimkit.satshim <file.cnf>``.  Prints the standard
competition result lines and exit code: ``s SATISFIABLE`` with one ``v``
line holding every variable signed, then ``0`` (exit 10), or
``s UNSATISFIABLE`` (exit 20).  The ``v`` line is written ``_CHUNK_ROWS``
literals at a time.  Exit 2 is a usage error, exit 3 an unreadable or
malformed file.  The whole file is checked before ``Solver.load_trusted``
takes it, by ``checked_clauses``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from .cdcl import Solver
from .dimacs import parse_dimacs
from .sat import _CHUNK_ROWS, CnfFormula


def checked_clauses(cnf: CnfFormula) -> list[list[int]]:
    """The clauses of ``cnf`` with repeated literals merged and tautologies
    dropped, as ``Solver.load_trusted`` takes them: a clause with no repeat
    is kept as its own list, not copied.  ValueError names the first
    literal outside the header's range, in a tautology too."""
    n = cnf.variable_count
    kept = []
    for clause in cnf.clauses:
        for lit in clause:
            if not (0 < lit <= n or 0 < -lit <= n):
                raise ValueError(f"literal {lit} not in [-{n}, {n}] \\ {{0}}")
        unique = dict.fromkeys(clause)
        if not any(-lit in unique for lit in unique):
            kept.append(clause if len(unique) == len(clause) else list(unique))
    return kept


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m ldimkit.satshim <file.cnf>", file=sys.stderr)
        return 2
    try:
        cnf = parse_dimacs(Path(argv[0]))
        clauses = checked_clauses(cnf)
    except (OSError, ValueError) as exc:  # FormatError is a ValueError
        print(f"satshim: {argv[0]}: {exc}", file=sys.stderr)
        return 3
    solver = Solver(cnf.variable_count)
    solver.load_trusted(clauses)
    if not solver.solve():
        print("s UNSATISFIABLE")
        return 20
    signed = list(range(-1, -cnf.variable_count - 1, -1))
    for v in solver.model:
        signed[v - 1] = v
    write = sys.stdout.write
    write("s SATISFIABLE\nv ")
    for start in range(0, len(signed), _CHUNK_ROWS):
        write((" " if start else "")
              + " ".join(map(str, signed[start:start + _CHUNK_ROWS])))
    write(" 0\n")
    return 10


if __name__ == "__main__":
    sys.exit(main())

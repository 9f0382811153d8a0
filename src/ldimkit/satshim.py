"""DIMACS command-line front-end to the bundled CDCL solver.

Usage: ``python -m ldimkit.satshim <file.cnf>``.  Prints the standard
competition result lines and exit code: ``s SATISFIABLE`` with one ``v``
line holding every variable signed, then ``0`` (exit 10), or
``s UNSATISFIABLE`` (exit 20).  The ``v`` line is written ``_CHUNK_ROWS``
literals at a time.  Exit 2 is a usage error, exit 3 an unreadable or
malformed file, or a write to stdout lost on a full disk, a closed pipe
or a closed descriptor 1; each exit 3 prints one ``satshim:`` line to
stderr.  The whole file is checked before ``Solver.load_trusted`` takes
it, by ``checked_clauses``.
"""

from __future__ import annotations

import os
import sys
from errno import EBADF
from pathlib import Path

if __name__ == "__main__":
    # ldimkit makes no BLAS call: load numpy without OpenBLAS's worker thread
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cdcl import Solver  # noqa: E402
from .dimacs import parse_dimacs  # noqa: E402
from .sat import _CHUNK_ROWS, CnfFormula  # noqa: E402


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
    sat = solver.solve()
    out = sys.stdout
    try:
        if out is None:  # descriptor 1 is closed
            raise OSError(EBADF, os.strerror(EBADF))
        if not sat:
            out.write("s UNSATISFIABLE\n")
        else:
            _write_model(out, solver.model, cnf.variable_count)
        out.flush()  # a lost write fails here, not at interpreter exit
    except OSError as exc:
        # what the failed flush left buffered is dropped, not retried at
        # exit, where CPython would report it again and exit 120
        sys.stdout = None
        print(f"satshim: stdout: {exc}", file=sys.stderr)
        return 3
    return 10 if sat else 20


def _write_model(out, model, variable_count: int) -> None:
    signed = list(range(-1, -variable_count - 1, -1))
    for v in model:
        signed[v - 1] = v
    out.write("s SATISFIABLE\nv ")
    for start in range(0, len(signed), _CHUNK_ROWS):
        out.write((" " if start else "")
                  + " ".join(map(str, signed[start:start + _CHUNK_ROWS])))
    out.write(" 0\n")


if __name__ == "__main__":
    sys.exit(main())

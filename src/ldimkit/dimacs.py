"""DIMACS and model I/O, and the external solver: the opt-in path.

``encode`` writes an instance as DIMACS CNF through ``write_dimacs``,
``solve --model`` reads a saved solver output through ``read_model``,
``solve_instance`` with a ``solver_command`` writes the instance and runs
the solver through ``run_solver``, and ``satshim`` reads a DIMACS file
through ``parse_dimacs``.  The in-process search never imports this
module; ``ldimkit.sat`` resolves these public names here on first access.

A map file has one line per variable, ``role A B i var``, with var read
from the ``VarMap`` tables: ``x``/``y`` give the pair A, B; ``z`` has
``-`` for B; ``s`` gives A and the count j as B; ``e`` has ``-`` for A and
the index bound j as B.

Solver output, a saved file or a subprocess's stdout alike, is read a
slice of text at a time, keeping only the positive literals: the model is
an int64 array of the true variables, as the in-process solver gives it.
"""

from __future__ import annotations

import re
import shlex
import subprocess
import tempfile
from array import array
from collections.abc import Iterator
from itertools import chain, combinations, islice
from pathlib import Path

import numpy as np

from .errors import (DecodeError, FormatError, ParameterError,
                     SolverEnvironmentError, SolverProtocolError)
from .intparse import parse_ints
from .sat import _CHUNK_ROWS, CnfFormula, SolverResult, VarMap


def _open_sink(sink, opened: list):
    if isinstance(sink, (str, Path)):
        handle = open(sink, "w", encoding="utf-8", newline="\n")
        opened.append(handle)
        return handle
    return sink


class _ClauseTemplates(dict):
    """DIMACS line format by clause length: "%d %d 0\n" for two literals."""

    def __missing__(self, length: int) -> str:
        template = self[length] = " ".join(["%d"] * length) + " 0\n"
        return template


def write_dimacs(formula: CnfFormula, varmap: VarMap | None, out,
                 map_out=None) -> None:
    """Write standard DIMACS CNF to ``out``; if ``map_out`` is given, also
    write one line ``role A B i var`` per variable of ``varmap``, ascending:
    ``x A B i`` and ``y A B i`` for before(A, B, i) and before(B, A, i)
    with id(A) < id(B), ``z A - i``, ``s A j i`` for s(A, i, j) and
    ``e - j i`` for e(i, j).  A ``map_out`` without a varmap is refused
    before anything is written.

    The header states ``formula.clause_count``, and the clauses follow
    ``_CHUNK_ROWS`` lines at a time, so a streamed formula is never held
    whole.  A stream that ends at any other count raises DecodeError."""
    if map_out is not None and varmap is None:
        raise ParameterError("a VarMap is required to write a map file")
    opened: list = []
    try:
        handle = _open_sink(out, opened)
        declared = formula.clause_count
        handle.write(f"p cnf {formula.variable_count} {declared}\n")
        templates = _ClauseTemplates()
        clauses, written = iter(formula.clauses), 0
        while chunk := list(islice(clauses, _CHUNK_ROWS)):
            handle.write("".join([templates[len(clause)] % tuple(clause)
                                  for clause in chunk]))
            written += len(chunk)
        if written != declared:
            raise DecodeError(
                f"header declares {declared} clauses, the stream gave {written}")
        if map_out is not None:
            _open_sink(map_out, opened).writelines(_map_lines(varmap))
    finally:
        for handle in opened:
            handle.close()


def _map_lines(vm: VarMap) -> Iterator[str]:
    """The map file's lines in ascending variable order, which is the
    layout's: each names the variable that its table holds."""
    ids = vm.P.element_ids()
    for (lo, a), (hi, b) in combinations(enumerate(ids), 2):
        for i, (x, y) in enumerate(zip(vm.before_table[lo, hi].tolist(),
                                       vm.before_table[hi, lo].tolist()), 1):
            yield f"x {a} {b} {i} {x}\n"
            yield f"y {a} {b} {i} {y}\n"
    for a, row in zip(ids, vm.z_table.tolist()):
        for i, var in enumerate(row, 1):
            yield f"z {a} - {i} {var}\n"
    for a, rows in zip(ids, vm.s_table.tolist()):
        for i, row in enumerate(rows, 1):
            for j, var in enumerate(row, 1):
                yield f"s {a} {j} {i} {var}\n"
    for i, row in enumerate(vm.e_table.tolist(), 1):
        for j, var in enumerate(row, 1):
            yield f"e - {j} {i} {var}\n"


# a line whose first non-blank character is 'c' (comment) or 'p' (header),
# with the newline before it: a leading literal lets the regex engine skip
# to each newline instead of trying every position
_DIMACS_LINE = re.compile(r"\n[^\S\n]*([cp])[^\n]*")


def parse_dimacs(source) -> CnfFormula:
    """Read a DIMACS CNF formula from a ``Path``, a file object, or a
    ``str``, which is always the text itself.

    Comment and header lines are cut out and the remaining tokens are read
    in one numpy parse; a clause may span lines, and a last clause without
    its 0 still counts.  A missing or malformed header, a clause count that
    differs from the header's, or a token that is not an integer raises
    FormatError."""
    if isinstance(source, Path):
        text = source.read_text(encoding="utf-8")
    elif hasattr(source, "read"):
        text = source.read()
    else:
        text = str(source)
    if not text.isascii() or any(c in text for c in "\r\v\f\x1c\x1d\x1e"):
        # the other line boundaries of str.splitlines, as newlines
        text = "\n".join(text.splitlines())
    text = "\n" + text
    variable_count = declared_clauses = None
    body, end = [], 0
    for line in _DIMACS_LINE.finditer(text):
        body.append(text[end:line.start()])
        end = line.end()
        if line[1] == "p":
            parts = line[0].split()
            if (len(parts) != 4 or parts[1] != "cnf"
                    or not all(map(_COUNT.fullmatch, parts[2:]))):
                raise FormatError(f"bad DIMACS header: {line[0][1:]!r}")
            variable_count, declared_clauses = int(parts[2]), int(parts[3])
    body.append(text[end:])
    if variable_count is None:
        raise FormatError("missing DIMACS 'p cnf' header")
    literals = parse_ints(" ".join(body), lambda token: (
        FormatError(f"DIMACS token {token!r} is not an integer literal")))
    flat = literals.tolist()
    ends = np.flatnonzero(literals == 0).tolist()
    if flat and flat[-1] != 0:
        ends.append(len(flat))
    starts = [0] + [end + 1 for end in ends[:-1]]
    clauses = [flat[start:end] for start, end in zip(starts, ends)]
    if declared_clauses != len(clauses):
        raise FormatError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}")
    return CnfFormula(variable_count, clauses)


def parse_model_text(text: str) -> SolverResult | None:
    """``read_model`` of solver output held as a string."""
    return _read_slices(text[start:start + _MODEL_SLICE]
                        for start in range(0, len(text), _MODEL_SLICE))


# characters of solver output that read_model takes at a time
_MODEL_SLICE = 1 << 16


def read_model(handle) -> SolverResult | None:
    """Parse solver output in the standard 's'/'v' line format from a text
    file object, ``_MODEL_SLICE`` characters at a time; returns None when
    no status line is present.  A status other than SATISFIABLE or
    UNSATISFIABLE (an UNKNOWN from a timeout, say), or a 'v' line token
    that is not an integer, raises SolverProtocolError.

    Lines split and strip as ``str.splitlines`` and ``str.strip`` have
    them.  A line that ends in the slice is read whole; a longer 'v' line is
    read a slice at a time, with the unfinished token carried over, so the
    reader holds one slice of text and the positive literals so far."""
    return _read_slices(iter(lambda: handle.read(_MODEL_SLICE), ""))


def _read_slices(slices: Iterator[str]) -> SolverResult | None:
    status = bad = None
    has_values = False
    kept = array("q")  # the positive literals so far, grown in place
    mode, carry = "head", ""  # the open line: "head", "v" or "skip"
    for chunk in chain(slices, [""]):  # the empty slice ends the last line
        values = []
        for piece in chunk.splitlines(keepends=True) or [""]:
            line = (piece.splitlines() or [""])[0]
            text, ends = carry + line, line != piece or not chunk
            carry = ""
            if mode == "head" and not ends:
                # the line runs on: a 'v ' line is read as it comes, an 's'
                # line or a 'v' with other blank after it waits for its end
                head = text.lstrip()
                if head.startswith("v "):
                    has_values, mode, text = True, "v", head[1:]
                elif len(head) > 1 and not (head[0] in "sv"
                                            and head[1].isspace()):
                    mode = "skip"
                else:
                    carry = head
                    continue
            if mode == "v":
                if not ends and text and not text[-1].isspace():
                    parts = text.rsplit(None, 1)
                    text, carry = ["", *parts][-2:]
                values.append(text)
            elif mode == "head":
                line = text.strip()
                if line.startswith("s ") or line == "s":
                    status = _STATUS.get(line[1:].strip().upper())
                    if status is None:
                        raise SolverProtocolError(
                            f"solver answered neither sat nor unsat: {line!r}")
                elif line.startswith("v ") or line == "v":
                    has_values = True
                    values.append(line[1:])
            if ends:
                mode = "head"
        if values and bad is None:
            try:
                literals = parse_ints(" ".join(values), lambda token: (
                    SolverProtocolError(
                        f"model value {token!r} is not an integer literal")))
                kept.frombytes(literals[literals > 0].tobytes())
            except SolverProtocolError as exc:
                bad = exc  # a bad status line later still names that first
    if bad is not None:
        raise bad
    if status is None:
        return None
    if status != "sat":
        return SolverResult(status)
    if not has_values:
        raise SolverProtocolError("solver reported SAT without 'v' model lines")
    return SolverResult(status, np.frombuffer(kept, dtype=np.int64))


_STATUS = {"SATISFIABLE": "sat", "UNSATISFIABLE": "unsat"}
_COUNT = re.compile(r"[0-9]+")


def run_solver(cnf_path, solver_command) -> SolverResult:
    """Launch the external solver on a DIMACS file and parse its verdict.

    ``solver_command`` is a command string, split as a shell would, or a
    sequence of arguments.  Accepts 's SATISFIABLE'/'s UNSATISFIABLE'
    status lines with 'v' model lines; exit codes 10/20 stand in when no
    status line is printed.  Any other status line raises
    SolverProtocolError, so the result is always sat or unsat.  A solver
    that exits with any other nonzero code and no status line has failed:
    SolverEnvironmentError names the code and its last stderr line.
    """
    cmd = (shlex.split(solver_command) if isinstance(solver_command, str)
           else list(solver_command)) + [str(cnf_path)]
    # stdout goes to a temporary file, which read_model takes a slice at a
    # time, so the model is never held as one string
    with tempfile.TemporaryFile("w+", encoding="utf-8") as stdout:
        try:
            proc = subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE,
                                  text=True, check=False)
        except OSError as exc:
            raise SolverEnvironmentError(
                f"cannot launch solver {cmd[0]!r}: {exc}") from exc
        stdout.seek(0)
        result = read_model(stdout)
    if result is None:
        if proc.returncode == 10:
            raise SolverProtocolError(
                "solver exited 10 (sat) but printed no model")
        if proc.returncode == 20:
            return SolverResult("unsat")
        stderr_tail = proc.stderr.strip().splitlines()[-1:] or [""]
        if proc.returncode != 0:
            raise SolverEnvironmentError(
                f"solver {cmd[0]!r} failed (exit {proc.returncode}): "
                f"{stderr_tail[0]}")
        raise SolverProtocolError(
            f"unparsable solver output (exit 0): {stderr_tail[0]}")
    return result

"""DIMACS and model I/O, and the external solver: the opt-in path.

``encode`` writes an instance as DIMACS CNF through ``write_dimacs``,
``solve --model`` reads a saved solver output through ``read_model``,
``solve_instance`` with a ``solver_command`` writes the instance and runs
the solver through ``run_solver``, and ``satshim`` reads a DIMACS file
through ``parse_dimacs`` and exits 3 on a write to stdout that is lost.
Only ``run_solver`` starts a process, and it imports the process
machinery when called.  Which command loads this module, and which loads
the process machinery, is stated once, in ``ldimkit.cli``.

A map file has one line per variable, ``role A B i var``, with var read
from the ``VarMap`` tables: ``x``/``y`` give the pair A, B; ``z`` has
``-`` for B; ``s`` gives A and the count j as B; ``e`` has ``-`` for A and
the index bound j as B.

Both text readers take ``_MODEL_SLICE`` characters at a time through one
line reader, ``_lines``, driven by one regex per format: it cuts DIMACS
comment and header lines out of the clause text, keeping the headers,
and every line of solver output but the values of its 'v' lines,
keeping the status lines.  Solver output, a saved file or a subprocess's
stdout alike, is read keeping only the positive literals: the model is an
int64 array of the true variables, as the in-process solver gives it.
DIMACS text is read keeping the clauses.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Iterator
from contextlib import nullcontext
from itertools import chain, combinations, islice
from pathlib import Path

import numpy as np

from .errors import (DecodeError, FormatError, ParameterError,
                     SolverEnvironmentError, SolverProtocolError)
from .intparse import parse_ints
from .sat import _CHUNK_ROWS, CnfFormula, SolverResult, VarMap


def _sink(sink):
    """A path opened for writing, or a file object left open."""
    if isinstance(sink, (str, Path)):
        return open(sink, "w", encoding="utf-8", newline="\n")
    return nullcontext(sink)


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
    declared = formula.clause_count
    with _sink(out) as handle:
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
        with _sink(map_out) as handle:
            handle.writelines(_map_lines(varmap))


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


# characters of text that parse_dimacs and read_model take at a time
_MODEL_SLICE = 1 << 16

# a line from its newline and blanks: a header ("p") kept whole, a comment
# ("c") dropped; any other line is clause text.  The leading newline lets
# the regex engine skip to each newline instead of trying every position
_DIMACS_LINE = re.compile(r"\n[^\S\n]*(?:(?P<keep>p)|c)[^\n]*")

# a status line ("s", then a space or blanks to the line's end) kept
# whole, a value line ("v" likewise) cut up to its "v", so that its values
# are body, and any other line dropped
_MODEL_LINE = re.compile(r"\n[^\S\n]*(?:(?P<keep>(?:s|(?P<v>v))"
                         r"(?= |[^\S\n]*(?:\n|\Z))(?(v)|[^\n]*))|[^\n]*)")

# an open line with fewer than two non-blank characters, whose kind waits
_UNDECIDED = re.compile(r"\n\s*(?:\S\s*)?\Z")


def parse_dimacs(source) -> CnfFormula:
    """Read a DIMACS CNF formula from a ``Path``, a file object, or a
    ``str``, which is always the text itself.

    A clause may span lines, and a last clause without its 0 still counts.
    A missing or malformed header, a clause count that differs from the
    header's, or a token that is not an integer raises FormatError; a bad
    header is named before a bad token, wherever each stands.  The text
    is read as ``_lines`` splits it, so the reader holds one slice of text
    besides the clauses."""
    if isinstance(source, Path):
        try:
            with open(source, encoding="utf-8") as handle:
                return _parse_slices(_slices(handle))
        except UnicodeDecodeError:
            # raised again with its position in the file, not in the slice
            source.read_text(encoding="utf-8")
            raise
    return _parse_slices(_slices(
        source if hasattr(source, "read") else str(source)))


def _slices(source) -> Iterator[str]:
    """A text file object, or a string, ``_MODEL_SLICE`` characters at a
    time."""
    if hasattr(source, "read"):
        return iter(lambda: source.read(_MODEL_SLICE), "")
    return (source[start:start + _MODEL_SLICE]
            for start in range(0, len(source), _MODEL_SLICE))


def _lines(slices: Iterator[str],
           line_re: re.Pattern) -> Iterator[tuple[list[str], str]]:
    """Each slice's kept lines, from their newline, and its body text, with
    lines split as ``str.splitlines`` has them.  ``line_re`` matches a line
    from its newline: the match is cut out, and kept if its ``keep`` group
    is set; text that no match cuts is body.  The open line at a slice's
    end waits until a second non-blank character decides its kind: a line
    matched to its end then waits whole if kept and is skipped if not, and
    a body line is read up to its unfinished token, which waits."""
    carry, skip = "\n", False  # the text that waits; whether it is dropped
    for chunk in chain(slices, [None]):
        if chunk is None:  # the end of the text ends the open line
            text, carry = carry, ""
        else:
            if not chunk.isascii() or any(c in chunk
                                          for c in "\r\v\f\x1c\x1d\x1e"):
                # the other line boundaries of str.splitlines, as newlines
                # (the "." keeps one that ends the slice); a "\r\n" split
                # between two slices reads as two, an empty line more
                chunk = "\n".join((chunk + ".").splitlines())[:-1]
            if skip:
                cut = chunk.find("\n")
                if cut < 0:
                    continue
                chunk, skip = chunk[cut:], False
            text, carry = carry + chunk, ""
            cut = max(text.rfind("\n"), 0)  # the open line's newline, if any
            line = line_re.match(text, cut)
            if _UNDECIDED.match(text, cut):
                text, carry = text[:cut], text[cut:]
            elif line and line.end() == len(text):
                # kept whole, it waits for its end; dropped, it is skipped
                skip = not line["keep"]
                text, carry = text[:cut], "" if skip else text[cut:]
            elif not text[-1].isspace():
                # a body line: its unfinished token waits
                *head, carry = text[cut:].rsplit(None, 1)
                text = text[:cut] + "".join(head)
        kept, pieces, end = [], [], 0
        for line in line_re.finditer(text):
            pieces.append(text[end:line.start()])
            end = line.end()
            if line["keep"]:
                kept.append(line[0])
        pieces.append(text[end:])
        yield kept, " ".join(pieces)


def _parse_slices(slices: Iterator[str]) -> CnfFormula:
    variable_count = declared_clauses = bad = None
    clauses, clause = [], []  # the finished clauses and the open one
    for headers, body in _lines(slices, _DIMACS_LINE):
        for line in headers:
            parts = line.split()
            if (len(parts) != 4 or parts[1] != "cnf"
                    or not all(map(_COUNT.fullmatch, parts[2:]))):
                raise FormatError(f"bad DIMACS header: {line[1:]!r}")
            variable_count, declared_clauses = int(parts[2]), int(parts[3])
        if bad is not None:
            continue  # only a bad header can still be named first
        try:
            literals = parse_ints(body, lambda token: (
                FormatError(f"DIMACS token {token!r} is not an integer "
                            "literal")))
        except FormatError as exc:
            bad = exc
            continue
        flat = literals.tolist()
        ends = np.flatnonzero(literals == 0).tolist()
        if not ends:
            clause += flat
            continue
        clause += flat[:ends[0]]
        clauses.append(clause)
        clauses += [flat[start + 1:end] for start, end in zip(ends, ends[1:])]
        clause = flat[ends[-1] + 1:]
    if variable_count is None:
        raise FormatError("missing DIMACS 'p cnf' header")
    if bad is not None:
        raise bad
    if clause:
        clauses.append(clause)
    if declared_clauses != len(clauses):
        raise FormatError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}")
    return CnfFormula(variable_count, clauses)


def read_model(source) -> SolverResult | None:
    """Parse solver output in the standard 's'/'v' line format from a text
    file object or a ``str``, which is always the text itself; returns
    None when no status line is present.  A status other than SATISFIABLE
    or UNSATISFIABLE (an UNKNOWN from a timeout, say), a 'v' line token
    that is not an integer, or text that is not UTF-8 raises
    SolverProtocolError, which names the byte.  Lines strip as
    ``str.strip`` has them.  The text is read as ``_lines`` splits it, so
    the reader holds one slice of text and the positive literals so far.
    ``parse_model_text`` is this function."""
    try:
        return _read_slices(_slices(source))
    except UnicodeDecodeError as exc:
        raise SolverProtocolError("solver output is not UTF-8: byte "
                                  f"{exc.object[exc.start]:#x}") from None


parse_model_text = read_model


def _read_slices(slices: Iterator[str]) -> SolverResult | None:
    status = bad = None
    has_values = False
    kept = array("q")  # the positive literals so far, grown in place
    for heads, values in _lines(slices, _MODEL_LINE):
        for line in heads:
            line = line.strip()
            if line == "v":
                has_values = True
                continue
            status = _STATUS.get(line[1:].strip().upper())
            if status is None:
                raise SolverProtocolError(
                    f"solver answered neither sat nor unsat: {line!r}")
        if bad is None:
            try:
                literals = parse_ints(values, lambda token: (
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
    SolverEnvironmentError names the code and its last stderr line, if any.
    """
    import shlex
    import subprocess
    import tempfile

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
        lines = proc.stderr.strip().splitlines()
        tail = f": {lines[-1]}" if lines else ""
        if proc.returncode != 0:
            raise SolverEnvironmentError(
                f"solver {cmd[0]!r} failed (exit {proc.returncode}){tail}")
        raise SolverProtocolError(f"unparsable solver output (exit 0){tail}")
    return result

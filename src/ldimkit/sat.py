"""SAT encoding of bounded-frequency local realizers, DIMACS I/O, solver
driving, model decoding, and exact search.

By default instances are decided in-process by the CDCL solver of
``ldimkit.cdcl``, fed straight from the clause generator.  An external
DIMACS solver is opt-in: pass ``solver_command`` (the CLI's ``--solver``) or
set the LDIMKIT_SAT_SOLVER environment variable.

The instance encode(P, k, d) is satisfiable iff P has a local realizer with
at most k partial linear extensions and frequency at most d.  Variables per
order index i in [k]: for each unordered pair {A, B} (canonically oriented
A < B by id) an x variable ("A before B in L_i") and a y variable ("B before
A in L_i"); for each element A a z variable ("A used in L_i").  Lookups
accept either pair orientation, so there are N(N-1)k pair variables plus Nk
usage variables.

``VarMap`` alone knows that layout.  Besides the checked scalar lookups
``before`` and ``z`` it gives the same variables as int64 tables indexed by
element index and order (``before_table``, ``z_table``).  The clause
generator gathers each clause family from those tables as one int64 block
and hands its rows on as lists, about a thousand at a time, so a solver fed
by ``iter_clauses`` never holds a whole family as Python lists.  The decoder
reads a model into a bool array over the variables and ranks each order's
used elements from the gathered before-matrix.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import comb
from pathlib import Path

import numpy as np

from .cdcl import solve_clauses
from .errors import (BoundExceededError, DecodeError, FormatError,
                     ParameterError, SolverEnvironmentError,
                     SolverProtocolError)
from .posets import Poset
from .realizers import RealizerFamily, verify_local_realizer

SOLVER_ENV_VAR = "LDIMKIT_SAT_SOLVER"


class VarMap:
    """Bijection between SAT variables 1..V and their roles.

    Pair block first: for pair index p and order i, variable 2(pk + i - 1) + 1
    is x(A, B, i) and the following even id is y(A, B, i).  Usage block after:
    z(A, i) = N(N-1)k + index(A)*k + i.

    ``before_table[index(A), index(B), i - 1]`` is before(A, B, i), 0 where
    A = B, and ``z_table[index(A), i - 1]`` is z(A, i): read-only int64
    arrays of shape N x N x k and N x k, built on first use.
    """

    def __init__(self, P: Poset, k: int):
        if k < 1:
            raise ParameterError(f"need k >= 1, got {k}")
        self.P = P
        self.k = k
        self.n = P.ground_size
        self.pair_block = self.n * (self.n - 1) * k
        self.variable_count = self.pair_block + self.n * k

    def _pair_var(self, lo, hi, i0, reverse):
        # x (reverse 0) or y (reverse 1) of index pair lo < hi in 0-based
        # order i0; ints or broadcasting int64 arrays alike
        p = lo * (2 * self.n - lo - 1) // 2 + (hi - lo - 1)
        return 2 * (p * self.k + i0) + 1 + reverse

    def _z_var(self, ai, i0):
        return self.pair_block + ai * self.k + i0 + 1

    def _check_order(self, i: int) -> None:
        if not 1 <= i <= self.k:
            raise ParameterError(f"order index {i} not in [1, {self.k}]")

    def before(self, a: int, b: int, i: int) -> int:
        """Variable for 'a placed before b in L_i' (either orientation)."""
        self._check_order(i)
        ai, bi = self.P.index_of(a), self.P.index_of(b)
        if ai == bi:
            raise ParameterError(f"pair variables need distinct elements, got {a}")
        if ai < bi:
            return self._pair_var(ai, bi, i - 1, 0)
        return self._pair_var(bi, ai, i - 1, 1)

    def z(self, a: int, i: int) -> int:
        self._check_order(i)
        return self._z_var(self.P.index_of(a), i - 1)

    @cached_property
    def before_table(self) -> np.ndarray:
        idx = np.arange(self.n, dtype=np.int64)
        a, b = idx[:, None, None], idx[None, :, None]
        table = self._pair_var(np.minimum(a, b), np.maximum(a, b),
                               np.arange(self.k, dtype=np.int64), a > b)
        table[idx, idx] = 0
        table.flags.writeable = False
        return table

    @cached_property
    def z_table(self) -> np.ndarray:
        table = self._z_var(np.arange(self.n, dtype=np.int64)[:, None],
                            np.arange(self.k, dtype=np.int64))
        table.flags.writeable = False
        return table

    def describe(self, var: int) -> tuple[str, int, int | None, int]:
        """(role, A, B or None, i) for a variable id."""
        if not 1 <= var <= self.variable_count:
            raise ParameterError(f"variable {var} not in [1, {self.variable_count}]")
        if var <= self.pair_block:
            t = var - 1
            role = "x" if t % 2 == 0 else "y"
            slot, i = divmod(t // 2, self.k)
            ai, bi = self._pairs[slot]
            return role, self.P.id_at(ai), self.P.id_at(bi), i + 1
        t = var - self.pair_block - 1
        ai, i = divmod(t, self.k)
        return "z", self.P.id_at(ai), None, i + 1

    @property
    def _pairs(self) -> list[tuple[int, int]]:
        cached = getattr(self, "_pairs_cache", None)
        if cached is None:
            cached = list(combinations(range(self.n), 2))
            self._pairs_cache = cached
        return cached

    def iter_entries(self):
        """Yield (role, A, B or None, i, var) for every variable, ascending."""
        for var in range(1, self.variable_count + 1):
            role, a, b, i = self.describe(var)
            yield role, a, b, i, var


@dataclass
class CnfFormula:
    variable_count: int
    clauses: list[list[int]]

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class SolverResult:
    status: str  # "sat" | "unsat" | "unknown"
    model: frozenset[int] | None = None


def encode(P: Poset, k: int, d: int) -> tuple[CnfFormula, VarMap]:
    """Emit the clause families for 'P has a local realizer with at most k
    orders and frequency at most d'."""
    vm, clauses = iter_clauses(P, k, d)
    return CnfFormula(vm.variable_count, list(clauses)), vm


def iter_clauses(P: Poset, k: int,
                 d: int) -> tuple[VarMap, Iterator[list[int]]]:
    """The VarMap of encode(P, k, d) and a generator of its clauses, in
    encode's order, so a solver can take them without a list of lists."""
    if k < 1 or d < 1:
        raise ParameterError(f"need k >= 1 and d >= 1, got k={k}, d={d}")
    vm = VarMap(P, k)
    return vm, _clauses(P, vm, d)


# rows handed on as lists at a time: enough to amortize tolist, few enough
# that a streaming consumer never holds a whole family as Python lists
_CHUNK_ROWS = 1024


def _clauses(P: Poset, vm: VarMap, d: int) -> Iterator[list[int]]:
    n, k = vm.n, vm.k
    before, z = vm.before_table, vm.z_table
    # one Python int per literal, indexed by the literal itself (negative
    # literals wrap to the end), so the clause lists share them rather than
    # each holding an int object per literal
    v = vm.variable_count
    literal = np.concatenate((np.arange(v + 1), np.arange(-v, 0))).astype(object)

    def lists(block: np.ndarray) -> list:
        return literal[block].tolist()

    def rows(block: np.ndarray) -> Iterator[list[int]]:
        for start in range(0, len(block), _CHUNK_ROWS):
            yield from lists(block[start:start + _CHUNK_ROWS])

    # each used triple is ordered transitively (covers both chain directions,
    # since the reversed triple contributes the mirrored clause); triples of
    # distinct indices in itertools.permutations order
    a, b, c = np.indices((n, n, n)).reshape(3, -1)
    distinct = (a != b) & (b != c) & (a != c)
    a, b, c = a[distinct], b[distinct], c[distinct]
    for i in range(k):
        zi, bi = z[:, i], before[:, :, i]
        yield from rows(np.stack((-zi[a], -zi[b], -zi[c], -bi[a, b],
                                  -bi[b, c], bi[a, c]), axis=1))

    # index pairs lo < hi in itertools.combinations order
    lo, hi = np.triu_indices(n, 1)
    leq = P.leq_matrix()
    up, down = leq[lo, hi], leq[hi, lo]
    comparable = up | down

    # comparable pairs: witnessed at least once, never reversed
    low = np.where(up, lo, hi)[comparable]
    high = np.where(up, hi, lo)[comparable]
    witness, reverse = before[low, high], -before[high, low, :, None]
    step = max(1, _CHUNK_ROWS // (k + 1))
    for s in range(0, len(low), step):
        for w, units in zip(lists(witness[s:s + step]),
                            lists(reverse[s:s + step])):
            yield w
            yield from units

    # incomparable pairs: both orders occur
    a, b = lo[~comparable], hi[~comparable]
    yield from rows(np.stack((before[a, b], before[b, a]), axis=1)
                    .reshape(-1, k))

    # coupling between pair variables and usage variables, per pair and order
    x, y = before[lo, hi].ravel(), before[hi, lo].ravel()
    za, zb = z[lo].ravel(), z[hi].ravel()
    twos = np.stack((-x, za, -x, zb, -y, za, -y, zb), axis=1).reshape(-1, 4, 2)
    fours = np.stack((-za, -zb, x, y), axis=1)
    pairs = np.stack((-x, -y), axis=1)
    step = _CHUNK_ROWS // 6
    for s in range(0, len(x), step):
        for two, four, pair in zip(lists(twos[s:s + step]),
                                   lists(fours[s:s + step]),
                                   lists(pairs[s:s + step])):
            yield from two
            yield four
            yield pair

    # frequency cap: no element is used in d+1 distinct orders
    combos = np.fromiter(chain.from_iterable(combinations(range(k), d + 1)),
                         dtype=np.int64, count=comb(k, d + 1) * (d + 1))
    combos = combos.reshape(-1, d + 1)
    for usage in z:
        yield from rows(-usage[combos])

    # a one-element ground set has no pairs, so require the element directly
    if n == 1:
        yield lists(z[0])


def expected_clause_count(N: int, n_comparable: int, n_incomparable: int,
                          k: int, d: int) -> int:
    """Closed-form clause total matching encode()."""
    total = k * N * (N - 1) * (N - 2)          # transitivity
    total += n_comparable * (1 + k)            # comparable obligations
    total += 2 * n_incomparable                # incomparable obligations
    total += 3 * N * (N - 1) * k               # coupling (6 per unordered pair)
    total += N * comb(k, d + 1)                # frequency cap
    if N == 1:
        total += 1                             # lone-element coverage
    return total


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


def write_dimacs(formula: CnfFormula, varmap: VarMap | None = None,
                 out=None, map_out=None) -> None:
    """Write standard DIMACS CNF to ``out``; if ``map_out`` is given (and a
    varmap supplied), also write one line per variable:
    ``x|y|z <A> <B|-> <i> <varid>``."""
    if out is None:
        raise ParameterError("write_dimacs needs an output path or file object")
    opened: list = []
    try:
        handle = _open_sink(out, opened)
        handle.write(f"p cnf {formula.variable_count} {formula.clause_count}\n")
        templates = _ClauseTemplates()
        for start in range(0, formula.clause_count, _CHUNK_ROWS):
            handle.write("".join([
                templates[len(clause)] % tuple(clause)
                for clause in formula.clauses[start:start + _CHUNK_ROWS]]))
        if map_out is not None:
            if varmap is None:
                raise ParameterError("a VarMap is required to write a map file")
            map_handle = _open_sink(map_out, opened)
            for role, a, b, i, var in varmap.iter_entries():
                b_text = "-" if b is None else str(b)
                map_handle.write(f"{role} {a} {b_text} {i} {var}\n")
    finally:
        for handle in opened:
            handle.close()


def parse_dimacs(source) -> CnfFormula:
    """Read a DIMACS CNF file (path, file object, or text)."""
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        text = Path(source).read_text(encoding="utf-8")
    elif hasattr(source, "read"):
        text = source.read()
    else:
        text = str(source)
    variable_count = None
    declared_clauses = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormatError(f"bad DIMACS header: {raw!r}")
            variable_count, declared_clauses = int(parts[2]), int(parts[3])
            continue
        for token in line.split():
            lit = int(token)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(current)
    if variable_count is None:
        raise FormatError("missing DIMACS 'p cnf' header")
    if declared_clauses is not None and declared_clauses != len(clauses):
        raise FormatError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}")
    return CnfFormula(variable_count, clauses)


def parse_model_text(text: str) -> SolverResult | None:
    """Parse solver output in the standard 's'/'v' line format; returns None
    when no status line is present.  A 'v' line token that is not an
    integer raises SolverProtocolError."""
    status = None
    values: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("s ") or line == "s":
            word = line[1:].strip().upper()
            if word == "SATISFIABLE":
                status = "sat"
            elif word == "UNSATISFIABLE":
                status = "unsat"
            else:
                status = "unknown"
        elif line.startswith("v ") or line == "v":
            values.append(line[1:])
    literals = _parse_literals(" ".join(values)) if values else None
    if status is None:
        return None
    model = None
    if literals is not None:
        model = frozenset(literals[literals > 0].tolist())
    if status == "sat" and model is None:
        raise SolverProtocolError("solver reported SAT without 'v' model lines")
    if status != "sat":
        model = None
    return SolverResult(status, model)


def _parse_literals(text: str) -> np.ndarray:
    """The integers of whitespace-separated text in one numpy parse.  numpy
    clips a literal beyond int64 to its limits, where it names no variable
    either way."""
    try:
        with warnings.catch_warnings():
            # numpy before 2.3 warns and stops at a token it cannot read
            warnings.simplefilter("error", DeprecationWarning)
            return np.fromstring(text, dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        pass
    # numpy's separators are the ASCII whitespace characters
    tokens = filter(None, re.split(r"[ \t\n\v\f\r]+", text))
    bad = next((t for t in tokens if not re.fullmatch(r"[+-]?[0-9]+", t)), "")
    raise SolverProtocolError(f"model value {bad!r} is not an integer literal")


def resolve_solver_command(solver_command=None) -> list[str]:
    """Resolve the external solver launch vector: explicit argument, then
    the LDIMKIT_SAT_SOLVER environment variable, then the bundled DIMACS
    front-end ``ldimkit.satshim``."""
    if solver_command is None:
        solver_command = os.environ.get(SOLVER_ENV_VAR) or None
    if solver_command is None:
        return [sys.executable, "-m", "ldimkit.satshim"]
    if isinstance(solver_command, str):
        return shlex.split(solver_command)
    return list(solver_command)


def run_solver(cnf_path, solver_command=None) -> SolverResult:
    """Launch the external solver on a DIMACS file and parse its verdict.

    Accepts 's SATISFIABLE'/'s UNSATISFIABLE' status lines with 'v' model
    lines; exit codes 10/20 stand in when no status line is printed.  A
    solver that exits with any other nonzero code and no status line has
    failed: SolverEnvironmentError names the code and its last stderr line.
    """
    cmd = resolve_solver_command(solver_command) + [str(cnf_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    except OSError as exc:
        raise SolverEnvironmentError(
            f"cannot launch solver {cmd[0]!r}: {exc}") from exc
    result = parse_model_text(proc.stdout)
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


def decode_realizer(model, varmap: VarMap, P: Poset) -> RealizerFamily:
    """Rebuild the realizer family from the true variables of a model.

    Order i consists of the elements whose z variable is true, sorted by the
    pairwise before-variables; raises DecodeError if those do not induce a
    total order.  Empty orders are dropped.  Variables outside
    1..variable_count are ignored.
    """
    literals = np.fromiter(model, dtype=np.int64)
    true = np.zeros(varmap.variable_count + 1, dtype=bool)
    true[literals[(literals > 0) & (literals <= varmap.variable_count)]] = True
    used_in, before = true[varmap.z_table], true[varmap.before_table]
    ids = np.asarray(P.element_ids())
    members = []
    for i in range(varmap.k):
        used = np.flatnonzero(used_in[:, i])
        rel = before[used[:, None], used, i]
        # most elements after it first; ties keep id order, like sorted()
        rank = np.argsort(-rel.sum(axis=1), kind="stable")
        if np.triu(~rel[rank[:, None], rank], 1).any():
            raise DecodeError(
                f"order {i + 1}: before-relation on used elements is not "
                f"a total order")
        if used.size:
            members.append(tuple(ids[used[rank]].tolist()))
    return RealizerFamily(members)


def decode_verified(model, varmap: VarMap, P: Poset, d: int) -> RealizerFamily:
    """Decode a sat model and verify the family against P and frequency d.

    A family that fails verification or exceeds frequency d raises
    DecodeError, since it signals an encoding or solver inconsistency.
    """
    family = decode_realizer(model, varmap, P)
    report = verify_local_realizer(P, family)
    if not report.accepted:
        raise DecodeError("decoded family fails verification")
    if report.frequency > d:
        raise DecodeError(
            f"decoded family has frequency {report.frequency} > d={d}")
    return family


def solve_instance(P: Poset, k: int, d: int, solver_command=None,
                   workdir=None) -> tuple[SolverResult, RealizerFamily | None]:
    """Encode, solve, and decode on sat.

    With no ``solver_command`` and LDIMKIT_SAT_SOLVER unset, the clauses
    stream from the encoder into the in-process CDCL solver: no file, no
    subprocess.  Otherwise the DIMACS file goes to a temporary directory
    under ``workdir`` and the external solver runs through run_solver.

    On sat the family comes from decode_verified, so it is a verified local
    realizer of frequency at most d.
    """
    if solver_command is None and not os.environ.get(SOLVER_ENV_VAR):
        vm, clauses = iter_clauses(P, k, d)
        model = solve_clauses(vm.variable_count, clauses)
        result = (SolverResult("unsat") if model is None
                  else SolverResult("sat", frozenset(model)))
    else:
        formula, vm = encode(P, k, d)
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            cnf_path = Path(tmp) / "instance.cnf"
            write_dimacs(formula, vm, cnf_path)
            result = run_solver(cnf_path, solver_command)
    if result.status != "sat":
        return result, None
    return result, decode_verified(result.model, vm, P, d)


def ldim_certificate(P: Poset, d_max: int | None = None, solver_command=None,
                     workdir=None) -> tuple[int, RealizerFamily]:
    """Least d whose instance is satisfiable, with the decoded witness.

    Uses k = max(1, floor(d*N/2)) orders, which is always enough.  For
    N >= 2 every element lies in some pair, and each pair is witnessed by a
    member holding both of its elements, so dropping the one-element
    members of a frequency-d realizer leaves a realizer; each remaining
    member holds at least two of the at most d*N element occurrences.  For
    N = 1 one order suffices.
    """
    limit = P.ground_size if d_max is None else d_max
    if limit < 1:
        raise ParameterError(f"d_max must be >= 1, got {limit}")
    for d in range(1, limit + 1):
        k = max(1, d * P.ground_size // 2)
        result, family = solve_instance(P, k, d, solver_command, workdir)
        if result.status == "sat":
            return d, family
        if result.status != "unsat":
            raise SolverProtocolError(
                f"solver returned {result.status!r} for {P.kind}, d={d}")
    raise BoundExceededError(
        f"no local realizer of frequency <= {limit} found for {P.kind}")


def ldim_exact(P: Poset, d_max: int | None = None, solver_command=None,
               workdir=None) -> int:
    """Exact local dimension of a small poset via repeated SAT queries."""
    return ldim_certificate(P, d_max, solver_command, workdir)[0]

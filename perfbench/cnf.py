"""DIMACS reading, clause evaluation and model building for the benchmark.

Clauses are held as one flat int64 array of literals with a 0 after each
clause, as in the file, so a 3.3M-clause formula is checked with a few
vector operations.  Assignments are built from a known family through the
public ``VarMap.before`` and ``VarMap.z``; variables that VarMap does not
name (auxiliary variables of a later encoding) are filled in by unit
propagation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNSET = -1


@dataclass
class Dimacs:
    variables: int
    clauses: int
    literals: np.ndarray  # flat, each clause ended by 0

    @property
    def ends(self) -> np.ndarray:
        return np.flatnonzero(self.literals == 0)


def read_dimacs(path) -> Dimacs:
    """Parse a DIMACS CNF file; raises ValueError when the header does not
    match the body or a literal is out of range."""
    with open(path, "rb") as handle:
        data = handle.read()
    lines = data.split(b"\n", 1)
    header = lines[0].split()
    if len(header) != 4 or header[:2] != [b"p", b"cnf"]:
        raise ValueError(f"bad DIMACS header {lines[0][:80]!r}")
    variables, clauses = int(header[2]), int(header[3])
    body = lines[1] if len(lines) > 1 else b""
    if b"c" in body or b"p" in body:
        raise ValueError("unexpected comment or header line in the body")
    literals = np.fromstring(body, dtype=np.int64, sep=" ")
    if literals.size and literals[-1] != 0:
        raise ValueError("last clause is not terminated by 0")
    found = int((literals == 0).sum())
    if found != clauses:
        raise ValueError(f"header declares {clauses} clauses, body has {found}")
    magnitude = np.abs(literals[literals != 0])
    if magnitude.size and magnitude.max() > variables:
        raise ValueError(f"literal {int(magnitude.max())} > {variables} variables")
    if np.any(np.diff(np.concatenate(([-1], np.flatnonzero(literals == 0)))) == 1):
        raise ValueError("empty clause")
    return Dimacs(variables, clauses, literals)


def _literal_values(cnf: Dimacs, values: np.ndarray) -> np.ndarray:
    """Per literal slot: 1 true, 0 false, UNSET unassigned; 0 at clause ends."""
    lits = cnf.literals
    v = values[np.abs(lits)]
    out = np.where(lits > 0, v, np.where(v == UNSET, UNSET, 1 - v))
    out[lits == 0] = 0
    return out


def _clause_starts(cnf: Dimacs) -> np.ndarray:
    return np.concatenate(([0], cnf.ends[:-1] + 1))


def unit_propagate(cnf: Dimacs, values: np.ndarray) -> np.ndarray:
    """Assign unset variables forced by unit clauses until none is left;
    variables still unset afterwards are set false."""
    values = values.copy()
    starts = _clause_starts(cnf)
    clause_of = np.repeat(np.arange(starts.size),
                          np.diff(np.append(starts, cnf.literals.size)))
    while (values[1:] == UNSET).any():
        lv = _literal_values(cnf, values)
        satisfied = np.maximum.reduceat(lv, starts) == 1
        open_count = np.add.reduceat((lv == UNSET).astype(np.int64), starts)
        unit = ~satisfied & (open_count == 1)
        if not unit.any():
            break
        forced = cnf.literals[(lv == UNSET) & unit[clause_of]]
        values[np.abs(forced)] = (forced > 0).astype(np.int8)
    values[values == UNSET] = 0
    return values


def unsatisfied(cnf: Dimacs, values: np.ndarray) -> int:
    """Number of clauses that a full assignment leaves false."""
    lv = _literal_values(cnf, values)
    return int((np.maximum.reduceat(lv, _clause_starts(cnf)) != 1).sum())


def family_values(varmap, members, variables: int) -> np.ndarray:
    """Assignment (index = variable) putting member i-1 in order i: z(a, i)
    for its elements and before(a, b, i) for each pair in member order.
    VarMap's other variables are false; any above them are UNSET."""
    values = np.full(variables + 1, UNSET, dtype=np.int8)
    values[1:varmap.variable_count + 1] = 0
    for i, member in enumerate(members, start=1):
        for p, a in enumerate(member):
            values[varmap.z(a, i)] = 1
            for b in member[p + 1:]:
                values[varmap.before(a, b, i)] = 1
    return values


def write_model(path, values: np.ndarray) -> None:
    """Solver output in the standard 's'/'v' line format."""
    var = np.arange(1, values.size, dtype=np.int64)
    signed = np.where(values[1:] == 1, var, -var)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("s SATISFIABLE\nv ")
        handle.write(" ".join(map(str, signed.tolist())))
        handle.write(" 0\n")

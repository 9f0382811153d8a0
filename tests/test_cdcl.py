import random
from itertools import product

import pytest

from ldimkit import cdcl
from ldimkit.cdcl import Solver, luby
from ldimkit.sat import CnfFormula
from ldimkit.satshim import checked_clauses


def brute_force_sat(n, clauses):
    for bits in product((False, True), repeat=n):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return True
    return False


def random_cnf(rng, n, m):
    clauses = []
    for _ in range(m):
        width = rng.choice((1, 2, 2, 3, 3, 3, 4))
        clauses.append([rng.randint(1, n) * rng.choice((1, -1))
                        for _ in range(width)])
    return clauses


@pytest.fixture(params=["default", "eager"])
def schedule(request, monkeypatch):
    """Default restart and reduction schedule, or one that restarts every
    few conflicts and halves the learnt clauses at almost every restart."""
    if request.param == "eager":
        monkeypatch.setattr(cdcl, "RESTART_UNIT", 2)
        monkeypatch.setattr(cdcl, "LEARNT_LIMIT", 2)
    return request.param


def test_random_cnfs_against_brute_force(schedule):
    # clauses of any form, with repeated and complementary literals, through
    # the DIMACS intake of satshim
    rng = random.Random(20031)
    verdicts = {True: 0, False: 0}
    for trial in range(400):
        n = rng.randint(1, 10)
        m = rng.randint(1, 5 * n)
        clauses = random_cnf(rng, n, m)
        solver = Solver(n)
        solver.load_trusted(checked_clauses(CnfFormula(n, clauses)))
        expected = brute_force_sat(n, clauses)
        assert solver.solve() == expected, (n, clauses)
        if expected:
            true = set(solver.model)
            assert true <= set(range(1, n + 1))
            for c in clauses:
                assert any((abs(l) in true) == (l > 0) for l in c), (c, true)
        verdicts[expected] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50


def test_trusted_load_against_brute_force(schedule):
    # well-formed clauses, as the encoder writes them, filed unchecked:
    # repeated and conflicting units, and watched literals that a later
    # unit falsifies before solve() propagates anything
    rng = random.Random(20032)
    verdicts = {True: 0, False: 0}
    for trial in range(400):
        n = rng.randint(1, 10)
        clauses = []
        for c in random_cnf(rng, n, rng.randint(1, 5 * n)):
            if not any(-lit in c for lit in c):
                clauses.append(list(dict.fromkeys(c)))
        solver = Solver(n)
        solver.load_trusted([list(c) for c in clauses])
        expected = brute_force_sat(n, clauses)
        assert solver.solve() == expected, (n, clauses)
        if expected:
            true = set(solver.model)
            for c in clauses:
                assert any((abs(l) in true) == (l > 0) for l in c), (c, true)
        verdicts[expected] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50
    solver = Solver(2)
    assert not solver.load_trusted([[1, 2], [1], [-1]])
    assert solver.solve() is False
    # an empty clause, and no clause at all
    solver = Solver(2)
    assert not solver.load_trusted([[1, 2], [-1], []])
    assert solver.solve() is False
    solver = Solver(0)
    assert solver.load_trusted([])
    assert solver.solve() is True and solver.model == []
    # a clause filed after solve() whose literals are all false already
    solver = Solver(3)
    solver.load_trusted([[-1], [-2], [-3]])
    assert solver.solve() is True
    solver.load_trusted([[1, 2, 3]])
    assert solver.solve() is False


def test_pigeonhole_unsat(schedule):
    # 7 pigeons into 6 holes: needs hundreds of conflicts, hence learning,
    # backjumping and restarts
    pigeons, holes = 7, 6
    var = lambda p, h: p * holes + h + 1
    solver = Solver(pigeons * holes)
    solver.load_trusted([var(p, h) for h in range(holes)]
                        for p in range(pigeons))
    solver.load_trusted([-var(p, h), -var(q, h)]
                        for h in range(holes)
                        for p in range(pigeons)
                        for q in range(p + 1, pigeons))
    assert solver.solve() is False
    assert solver.restarts >= 1


def test_luby_prefix():
    assert [luby(i) for i in range(15)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1,
                                           1, 2, 4, 8]

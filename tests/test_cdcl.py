import hashlib
import random
import tracemalloc
from itertools import product

import pytest

from ldimkit import cdcl
from ldimkit.cdcl import Solver, luby
from ldimkit.posets import build_poset
from ldimkit.sat import CnfFormula, encode
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
    rng, cuts = random.Random(20032), random.Random(20033)
    verdicts = {True: 0, False: 0}
    turned_unsat = 0
    for trial in range(400):
        n = rng.randint(1, 10)
        clauses = []
        for c in random_cnf(rng, n, rng.randint(1, 5 * n)):
            if not any(-lit in c for lit in c):
                clauses.append(list(dict.fromkeys(c)))
        expected = brute_force_sat(n, clauses)
        solver = Solver(n)
        solver.load_trusted([list(c) for c in clauses])
        assert solver.solve() == expected, (n, clauses)
        # the same clauses in two batches with a solve() between: the
        # second batch may watch literals that the first solve set false
        cut = cuts.randint(0, len(clauses))
        first = brute_force_sat(n, clauses[:cut])
        batched = Solver(n)
        batched.load_trusted([list(c) for c in clauses[:cut]])
        assert batched.solve() == first, (n, clauses, cut)
        batched.load_trusted([list(c) for c in clauses[cut:]])
        assert batched.solve() == expected, (n, clauses, cut)
        if expected:
            for true in set(solver.model), set(batched.model):
                for c in clauses:
                    assert any((abs(l) in true) == (l > 0) for l in c), (
                        c, true)
        verdicts[expected] += 1
        turned_unsat += first and not expected
    assert verdicts[True] > 50 and verdicts[False] > 50
    assert turned_unsat > 50
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


@pytest.mark.parametrize("spec, d, conflicts, decisions, restarts, digest", [
    ("boolean:3", 2, 39, 87, 0, None),
    ("boolean:3", 3, 19, 103, 0,
     "6eae874073980697270f22293fc64d4a8656c75b876132985b8d6be02c5eb13b"),
    ("multiset-singleton:2:3", 2, 19, 24, 0, None),
    ("multiset-singleton:2:3", 3, 20, 107, 0,
     "3974937c1f3ce40b11d0028af44e5300d6e34eddbe20bada3bda166112d19cc4"),
    ("boolean:4", 2, 70, 638, 0, None),
    ("boolean:4", 3, 108, 587, 1,
     "42a52e4e4a5538b5b792238af64a41462cf02360fbc187ac3f983959b5d1ec63"),
    ("multiset:3:3", 2, 78, 744, 0, None),
], ids=["boolean:3-d2", "boolean:3-d3", "multiset-singleton:2:3-d2",
        "multiset-singleton:2:3-d3", "boolean:4-d2", "boolean:4-d3",
        "multiset:3:3-d2"])
def test_search_is_pinned(spec, d, conflicts, decisions, restarts, digest):
    # ldim's queries (symmetry break, k = floor(dN/2)) take these very
    # steps; a change to the solver's bookkeeping must leave them alone.
    # digest: sha256 of the model's true variables, space-separated
    P = build_poset(spec)
    formula, vm = encode(P, d * P.ground_size // 2, d, symmetry_break=True,
                         stream=True)
    solver = Solver(vm.total_count)
    solver.load_trusted(formula.clauses)
    assert solver.solve() is (digest is not None)
    assert (solver.conflicts, solver.decisions, solver.restarts) == (
        conflicts, decisions, restarts)
    if digest is not None:
        text = " ".join(map(str, solver.model))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
    # the heap holds one entry per variable and key
    assert len(set(solver.heap)) == len(solver.heap)
    # every learnt clause is watched on its first two literals
    watches = solver.watches
    for c in solver.learnts:
        assert any(w is c for w in watches[-c[0]])
        assert any(w is c for w in watches[-c[1]])


def test_solver_tables_are_lean():
    # the watch and implication slots share one empty tuple until used:
    # 100,000 variables trace about 18 MiB (38 MiB with a list per slot)
    tracemalloc.start()
    try:
        Solver(100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_luby_prefix():
    assert [luby(i) for i in range(15)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1,
                                           1, 2, 4, 8]

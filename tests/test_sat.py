import hashlib
import io
import random
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import islice, product

import numpy as np
import pytest

from ldimkit import (Antichain, BooleanLattice, Chain, DecodeError,
                     ParameterError, Poset, SingletonPoset,
                     SolverEnvironmentError, SolverProtocolError, VarMap,
                     b4_family, b7_family, build_bn_realizer,
                     build_poset, decode_realizer, emit_orders_text, encode,
                     expected_clause_count, ldim_certificate, ldim_exact,
                     parse_dimacs, parse_model_text, run_solver,
                     solve_instance, verify_local_realizer, write_dimacs)
from ldimkit.cdcl import Solver
from ldimkit.sat import CnfFormula
from ldimkit.satshim import checked_clauses

from tests import oracle
from tests.test_realizers import _Relabelled


def test_varmap_layout_and_bijection():
    P = BooleanLattice(2)
    vm = VarMap(P, 2)
    assert vm.variable_count == 4 * 3 * 2 + 4 * 2  # N(N-1)k + Nk = 32
    seen = set()
    for a in P.element_ids():
        for b in P.element_ids():
            if a == b:
                continue
            for i in (1, 2):
                var = vm.before(a, b, i)
                assert 1 <= var <= vm.pair_block
                seen.add(var)
                # the reverse orientation is a variable of its own
                assert vm.before(b, a, i) != var
    assert seen == set(range(1, vm.pair_block + 1))
    zs = {vm.z(a, i) for a in P.element_ids() for i in (1, 2)}
    assert zs == set(range(vm.pair_block + 1, vm.variable_count + 1))


def test_varmap_describe_inverse():
    # the map file describes each variable: without d, with a counter
    # (d < k), with the counter and the lex chain and with the lex chain
    # alone (d >= k), its lines name 1..total_count in order, and each
    # line's role and indices give its variable back through the lookups
    for P, k, d, brk in ((Chain(3), 2, None, False), (Chain(3), 4, 2, False),
                         (Chain(3), 4, 2, True), (Chain(3), 2, 2, True),
                         (_Relabelled(SingletonPoset(3)), 3, 1, True)):
        vm = VarMap(P, k, d, brk)
        buf = io.StringIO()
        write_dimacs(CnfFormula(vm.total_count, []), vm, io.StringIO(), buf)
        lines = [line.split() for line in buf.getvalue().splitlines()]
        assert [int(var) for *_, var in lines] == list(
            range(1, vm.total_count + 1))
        for role, a, b, i, var in lines:
            i, var = int(i), int(var)
            if role == "z":
                assert b == "-"
                assert vm.z(int(a), i) == var
            elif role == "x":
                assert int(a) < int(b) and vm.before(int(a), int(b), i) == var
            elif role == "y":
                assert int(a) < int(b) and vm.before(int(b), int(a), i) == var
            elif role == "s":
                assert vm.s(int(a), i, int(b)) == var
            else:
                assert role == "e" and a == "-"
                assert vm.e(i, int(b)) == var
        assert {role for role, *_ in lines} == {"x", "y", "z"} \
            | ({"s"} if vm.counter_width else set()) \
            | ({"e"} if brk else set())
        with pytest.raises(ParameterError):
            vm.before(1, 1, 1)
        with pytest.raises(ParameterError):
            vm.z(0, 5)
        for bad in ((0, 1), (k, 1), (1, 0), (1, (d or 0) + 1)):
            with pytest.raises(ParameterError):
                vm.s(P.element_ids()[0], *bad)
        for bad in ((0, 1), (k, 1), (1, 0), (1, P.ground_size)):
            with pytest.raises(ParameterError):
                vm.e(*bad)
    with pytest.raises(ParameterError):
        VarMap(Chain(3), 2, 0)


def test_varmap_without_d_keeps_its_layout():
    # encode(P, k, d) adds its auxiliary variables after the usage block,
    # so VarMap(P, k) reads the same x, y and z ids for every d and break,
    # and every map counts them alike in variable_count
    P = BooleanLattice(3)
    plain = VarMap(P, 6)
    assert plain.variable_count == plain.total_count == 8 * 7 * 6 + 8 * 6
    for d, brk in product((1, 3, 6, 9), (False, True)):
        vm = VarMap(P, 6, d, brk)
        assert (vm.before_table == plain.before_table).all()
        assert (vm.z_table == plain.z_table).all()
        assert vm.variable_count == plain.variable_count
        counter = 8 * 5 * d if d < 6 else 0
        lex = 5 * 7 if brk else 0
        assert vm.total_count == plain.variable_count + counter + lex
        assert vm.total_count == encode(P, 6, d, brk)[0].variable_count


def test_encode_counts():
    P = BooleanLattice(2)
    formula, vm = encode(P, 2, 2)
    assert formula.variable_count == 32
    # no transitivity clause stays, since each triple has a pair that P
    # orders; 5 comparable pairs take 1 + 4k clauses and the incomparable
    # one 2 + 6k
    assert formula.clause_count == expected_clause_count(P, 2, 2) == 59

    lone, _ = encode(Chain(1), 2, 1)
    assert lone.clause_count == expected_clause_count(Chain(1), 2, 1)
    assert lone.clauses[-1] == [1, 2]  # coverage clause for the lone element


def test_dimacs_round_trip(tmp_path):
    P = Chain(2)
    formula, vm = encode(P, 2, 1)
    path = tmp_path / "f.cnf"
    map_path = tmp_path / "f.map"
    write_dimacs(formula, vm, path, map_path)
    text = path.read_text()
    header = text.splitlines()[0].split()
    assert header == ["p", "cnf", str(formula.variable_count),
                      str(formula.clause_count)]
    back = parse_dimacs(path)
    assert back.variable_count == formula.variable_count
    assert back.clauses == formula.clauses
    # map lines: role A B|- i var
    lines = map_path.read_text().splitlines()
    assert len(lines) == formula.variable_count
    assert lines[0].split() == ["x", "0", "1", "1", "1"]
    assert lines[-1].split()[0] == "s"

    buf = io.StringIO()
    write_dimacs(formula, vm, buf)
    assert parse_dimacs(buf.getvalue()).clauses == formula.clauses


def test_map_without_varmap_writes_nothing(tmp_path):
    formula, _ = encode(Chain(2), 2, 1)
    cnf, buf = tmp_path / "x.cnf", io.StringIO()
    for out in (cnf, buf):
        with pytest.raises(ParameterError, match="VarMap"):
            write_dimacs(formula, None, out, tmp_path / "x.map")
    assert not cnf.exists() and not (tmp_path / "x.map").exists()
    assert buf.getvalue() == ""


def test_parse_dimacs_errors(tmp_path):
    from ldimkit import FormatError
    with pytest.raises(FormatError):
        parse_dimacs("1 2 0\n")  # no header
    with pytest.raises(FormatError):
        parse_dimacs("p cnf 2 5\n1 2 0\n")  # clause count mismatch
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 1 1\n1 0\n")
    with pytest.raises(FormatError, match="header"):
        parse_dimacs(str(path))  # a str is text, never a file name


SATSHIM = [sys.executable, "-m", "ldimkit.satshim"]


def test_parse_model_text():
    res = parse_model_text("c comment\ns SATISFIABLE\nv 1 -2 3 0\n")
    assert res.status == "sat" and res.model.dtype == np.int64
    assert sorted(res.model.tolist()) == [1, 3]
    res = parse_model_text("s SATISFIABLE\nv 1 -2\nv 3\nv 0\n")
    assert sorted(res.model.tolist()) == [1, 3]
    res = parse_model_text("s UNSATISFIABLE\n")
    assert res.status == "unsat" and res.model is None
    assert parse_model_text("no verdict here\n") is None
    with pytest.raises(SolverProtocolError):
        parse_model_text("s SATISFIABLE\n")
    with pytest.raises(SolverProtocolError, match="'s UNKNOWN'"):
        parse_model_text("s UNKNOWN\nv 1 0\n")


def test_run_solver_round_trip(tmp_path):
    sat = tmp_path / "sat.cnf"
    sat.write_text("p cnf 2 1\n1 2 0\n")
    res = run_solver(sat, SATSHIM)
    assert res.status == "sat"
    assert res.model is not None and {1, 2} & set(res.model.tolist())
    unsat = tmp_path / "unsat.cnf"
    unsat.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert run_solver(unsat, SATSHIM).status == "unsat"
    # exit 20 with no status line stands for unsat
    silent = [sys.executable, "-c", "import sys; sys.exit(20)"]
    assert run_solver(unsat, silent).status == "unsat"


def test_run_solver_environment_errors(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    with pytest.raises(SolverEnvironmentError):
        run_solver(cnf, ["/nonexistent/solver-binary"])
    with pytest.raises(SolverProtocolError):
        run_solver(cnf, [sys.executable, "-c", "print('hello')"])
    with pytest.raises(SolverProtocolError, match="exited 10"):
        run_solver(cnf, [sys.executable, "-c", "import sys; sys.exit(10)"])
    crash = "import sys; sys.stderr.write('no backend here\\n'); sys.exit(7)"
    with pytest.raises(SolverEnvironmentError,
                       match=r"exit 7\): no backend here"):
        run_solver(cnf, [sys.executable, "-c", crash])


def test_satshim_cli(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    proc = subprocess.run([sys.executable, "-m", "ldimkit.satshim",
                           str(cnf)], capture_output=True, text=True)
    assert proc.returncode == 10
    assert proc.stdout.startswith("s SATISFIABLE")
    proc = subprocess.run([sys.executable, "-m", "ldimkit.satshim"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_satshim_results(tmp_path, capsys):
    from ldimkit import satshim
    sat = tmp_path / "sat.cnf"
    sat.write_text("p cnf 3 2\n-1 0\n2 -3 0\n")
    assert satshim.main([str(sat)]) == 10
    status, values = capsys.readouterr().out.splitlines()
    assert status == "s SATISFIABLE"
    lits = [int(t) for t in values.split()[1:]]
    assert lits[-1] == 0 and sorted(map(abs, lits[:-1])) == [1, 2, 3]
    assert -1 in lits and (2 in lits or -3 in lits)
    unsat = tmp_path / "unsat.cnf"
    unsat.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert satshim.main([str(unsat)]) == 20
    assert capsys.readouterr().out == "s UNSATISFIABLE\n"
    assert satshim.main([str(tmp_path / "missing.cnf")]) == 3
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1 1\n2 0\n")   # literal beyond the header
    assert satshim.main([str(bad)]) == 3
    # the whole file is checked before loading, so a bad literal after a
    # contradiction is refused too
    late = tmp_path / "late.cnf"
    late.write_text("p cnf 1 3\n1 0\n-1 0\n5 0\n")
    assert satshim.main([str(late)]) == 3
    assert capsys.readouterr().err.endswith("literal 5 not in [-1, 1] \\ {0}\n")
    # a zero literal, which no DIMACS text can hold, is refused too
    with pytest.raises(ValueError, match="literal 0 not in"):
        checked_clauses(CnfFormula(3, [[1], [0]]))


def test_checked_clauses_copy_only_merged_ones():
    cnf = CnfFormula(3, [[1, -2], [3, 3, -1], [2, -2], [-3]])
    kept = checked_clauses(cnf)
    assert kept == [[1, -2], [3, -1], [-3]]
    assert kept[0] is cnf.clauses[0] and kept[2] is cnf.clauses[3]


@pytest.mark.parametrize("text,code,out,err", [
    # repeated literals count once
    ("p cnf 3 3\n1 1 2 0\n-1 -1 0\n-2 3 3 0\n", 10,
     "s SATISFIABLE\nv -1 2 3 0\n", ""),
    ("p cnf 1 3\n1 1 0\n-1 -1 0\n1 -1 0\n", 20, "s UNSATISFIABLE\n", ""),
    # tautologies are dropped
    ("p cnf 2 3\n1 -1 0\n2 -2 1 0\n-1 0\n", 10,
     "s SATISFIABLE\nv -1 -2 0\n", ""),
    # a literal beyond the header is refused, inside a tautology too
    ("p cnf 2 2\n1 2 0\n1 -3 0\n", 3, "",
     "literal -3 not in [-2, 2] \\ {0}\n"),
    ("p cnf 2 2\n1 -1 3 0\n1 0\n", 3, "",
     "literal 3 not in [-2, 2] \\ {0}\n"),
    # an empty clause is unsatisfiable, and no clause at all is not
    ("p cnf 2 1\n0\n", 20, "s UNSATISFIABLE\n", ""),
    ("p cnf 0 0\n", 10, "s SATISFIABLE\nv  0\n", "")])
def test_satshim_checks_its_input(tmp_path, capsys, text, code, out, err):
    # satshim checks DIMACS input for range, repeats and tautologies before
    # Solver.load_trusted, the one intake, files it unchecked
    from ldimkit import satshim
    path = tmp_path / "f.cnf"
    path.write_text(text)
    assert satshim.main([str(path)]) == code
    got = capsys.readouterr()
    assert got.out == out
    assert got.err == (f"satshim: {path}: {err}" if err else "")


def test_solve_and_decode_chain():
    C = Chain(2)
    result, fam = solve_instance(C, 1, 1)
    assert result.status == "sat"
    assert list(fam) == [(0, 1)]


def test_solve_unsat_then_sat():
    B = BooleanLattice(2)
    result, fam = solve_instance(B, 4, 1)
    assert result.status == "unsat" and fam is None
    result, fam = solve_instance(B, 4, 2)
    assert result.status == "sat"
    rep = verify_local_realizer(B, fam)
    assert rep.accepted and rep.frequency <= 2
    assert oracle.check_family(B, fam)[0]


def test_default_backend_runs_in_process(monkeypatch):
    def no_spawn(*args, **kwargs):
        raise AssertionError("the default backend spawned a process")

    monkeypatch.setattr(subprocess, "run", no_spawn)
    monkeypatch.setattr(subprocess, "Popen", no_spawn)
    result, fam = solve_instance(BooleanLattice(2), 4, 2)
    assert result.status == "sat" and verify_local_realizer(
        BooleanLattice(2), fam).accepted
    assert solve_instance(BooleanLattice(2), 4, 1)[0].status == "unsat"


def test_external_solver_is_opt_in():
    shim = f"{shlex.quote(sys.executable)} -m ldimkit.satshim"
    B = BooleanLattice(2)
    result, fam = solve_instance(B, 4, 2, SATSHIM)
    assert result.status == "sat" and oracle.check_family(B, fam)[0]
    assert solve_instance(B, 4, 1, shim)[0].status == "unsat"
    with pytest.raises(SolverEnvironmentError):
        solve_instance(B, 4, 1, "/nonexistent/solver-binary")


@pytest.mark.parametrize("spec,k,d", [("boolean:2", 4, 2),
                                      ("boolean:3", 12, 3)])
def test_backends_agree_exactly(spec, k, d):
    # satshim finds nothing to merge or drop in the encoder's clauses and
    # loads them in the same order as the in-process search, so both
    # solvers take the same steps to the same model
    P = build_poset(spec)
    own, family = solve_instance(P, k, d)
    shim, shim_family = solve_instance(P, k, d, SATSHIM)
    assert own.status == shim.status == "sat"
    assert shim.model.tolist() == own.model.tolist()
    assert list(shim_family) == list(family)


def test_decode_rejects_inconsistent_model():
    C = Chain(2)
    vm = VarMap(C, 1)
    # both elements used, but neither before-variable set
    with pytest.raises(DecodeError):
        decode_realizer([vm.z(0, 1), vm.z(1, 1)], vm, C)


def test_decode_drops_empty_orders():
    C = Chain(2)
    vm = VarMap(C, 3)
    model = [vm.z(0, 2), vm.z(1, 2), vm.before(0, 1, 2)]
    fam = decode_realizer(model, vm, C)
    assert list(fam) == [(0, 1)]


def test_frozen_ldim_values():
    cases = [(Chain(1), 1), (Chain(4), 1), (Antichain(2), 2),
             (Antichain(3), 2), (BooleanLattice(1), 1),
             (BooleanLattice(2), 2), (SingletonPoset(2), 2)]
    for P, want in cases:
        d, fam = ldim_certificate(P)
        assert d == want, P.kind
        rep = verify_local_realizer(P, fam)
        assert rep.accepted and rep.frequency <= d
    assert ldim_exact(Chain(3)) == 1


class _Induced(Poset):
    """The subposet of ``base`` induced on ``ids``, its element i being
    ids[i]."""

    def __init__(self, base: Poset, ids):
        self.kind = f"induced-{base.kind}"
        self.ground_size = len(ids)
        self.base, self.at = base, base.indices_of(ids)

    def _leq_index(self, i, j):
        return self.base._leq_index(self.at[i], self.at[j])


def test_standard_example_s3_has_ldim_3():
    # S_3: the singletons and the 2-sets of boolean:3, each singleton below
    # all 2-sets but one; d = 3 means d = 2 is unsat at k = 6, and ldim is
    # monotone on induced subposets, so ldim(boolean:n) >= 3 for n >= 3
    S3 = _Induced(BooleanLattice(3), [1, 2, 4, 3, 5, 6])
    assert [[S3.leq(i, j) for j in range(3, 6)] for i in range(3)] == [
        [True, True, False], [True, False, True], [False, True, True]]
    d, fam = ldim_certificate(S3)
    assert d == 3
    rep = verify_local_realizer(S3, fam)
    assert rep.accepted and rep.frequency == 3


# A frequency-4 local realizer of singleton:5, found by
# solve_instance(build_poset("singleton:5"), 62, 4) (about 30 s, so the
# solve stays out of tier-1): ldim(singleton:5) <= 4.
SINGLETON_5_FREQUENCY_4 = """\
4 2 1 7 3 6 16 22 17 18 5 19 23 20 8 31 30 28 21 24 27 29 10 11 26 25 9 12 15 14 13
8 16 1 24 2 26 18 11 25 10 17 19 4 29
30 28 20 24 18 14 22 10 6 12 26 1 31 21 27
17 9 20 12 29 2 15 5 6
5 16 21 8 28 13 25 2 11 23
9 4 14 15 3 23 19 31
3 27 4
8 13 15 12 14 9 11 10 16 25 26 29 27 21 31 24 28 30 20 23 19 5 17 18 6 22 3 7
13
"""


def test_singleton5_frequency_4_witness():
    family = [tuple(map(int, line.split()))
              for line in SINGLETON_5_FREQUENCY_4.splitlines()]
    rep = verify_local_realizer(build_poset("singleton:5"), family)
    assert (rep.accepted, rep.frequency, rep.size) == (True, 4, 9)


def test_half_k_agrees_with_full_k():
    # ldim_certificate searches with k = floor(d*N/2) orders; on these
    # posets that decides every d exactly as k = d*N does
    for P in (Chain(3), Antichain(3), BooleanLattice(2), SingletonPoset(2),
              SingletonPoset(3)):
        N = P.ground_size
        for d in (1, 2):
            half = solve_instance(P, d * N // 2, d)[0].status
            assert half == solve_instance(P, d * N, d)[0].status, (P.kind, d)


def test_ldim_d_max_exhausted():
    from ldimkit import BoundExceededError
    with pytest.raises(BoundExceededError):
        ldim_certificate(Antichain(2), d_max=1)


# The printed d and the -o witness bytes of `ldim` on perfbench's ldim-search
# posets, and the witness of S_3, as a search that posed every d from 1
# gave them: each query is solved from scratch, so skipping one changes no
# answer and no witness
LDIM_WITNESSES = {
    "chain:4": (1, "0 1 2 3\n"),
    "antichain:3": (2, "2 1 0\n0 1 2\n"),
    "boolean:2": (2, "0 2 1 3\n0 1 2 3\n"),
    "boolean:3": (3, "0 4 1 5 2 3\n0 2 6 1 5\n0 1 4 6 3 7\n2 3 4 5 6 7\n"),
    "multiset-singleton:2:3": (
        3, "6 3 2 1 8 5 4\n3 1 7 4 2 8\n2 1 3 6 7 5\n4 5 6 8 7\n"),
}
S3_WITNESS = "2 1 5 0 3 4\n2 0 4 1 3\n1 0 3 2 5\n4 5\n"


@pytest.mark.parametrize("spec", list(LDIM_WITNESSES))
def test_ldim_output_is_pinned(tmp_path, capsys, spec):
    from ldimkit.cli import main
    d, witness = LDIM_WITNESSES[spec]
    path = tmp_path / "w.orders"
    assert main(["ldim", "--poset", spec, "-o", str(path)]) == 0
    assert capsys.readouterr() == (f"{d}\n", "")
    assert path.read_bytes() == witness.encode()


def test_s3_witness_is_pinned():
    S3 = _Induced(BooleanLattice(3), [1, 2, 4, 3, 5, 6])
    d, family = ldim_certificate(S3)
    assert (d, emit_orders_text(family)) == (3, S3_WITNESS)


def test_only_a_chain_poses_d1(monkeypatch, capsys):
    # an incomparable pair needs two members holding both its elements, so
    # the search starts at d = 2 without asking; a chain is still asked
    import ldimkit.sat
    from ldimkit.cli import main
    asked = []
    solve = ldimkit.sat.solve_instance

    def recording(P, k, d, solver_command=None):
        asked.append(d)
        return solve(P, k, d, solver_command)

    monkeypatch.setattr(ldimkit.sat, "solve_instance", recording)
    S3 = _Induced(BooleanLattice(3), [1, 2, 4, 3, 5, 6])
    for P, want in ((Antichain(2), [2]), (S3, [2, 3]), (Chain(3), [1]),
                    (Chain(1), [1])):
        asked.clear()
        assert ldim_certificate(P)[0] == want[-1]
        assert asked == want, P.kind
    asked.clear()
    assert main(["ldim", "--poset", "antichain:2", "--d-max", "1"]) == 1
    assert capsys.readouterr() == ("", (
        "ERROR:bound: no local realizer of frequency <= 1 found for "
        "antichain:2\n"))
    assert asked == []


# ------------------------------------ table-built encoder and decoder vs. oracle


def test_varmap_tables_match_scalar_lookups():
    for P, k, d, brk in (
            (Chain(1), 2, None, False), (Chain(3), 2, None, False),
            (BooleanLattice(3), 3, None, False),
            (_Relabelled(SingletonPoset(3)), 2, None, False),
            (Chain(1), 2, 1, True), (BooleanLattice(3), 3, 2, False),
            (BooleanLattice(3), 3, 2, True), (BooleanLattice(3), 3, 3, True),
            (_Relabelled(SingletonPoset(3)), 4, 2, True)):
        vm = VarMap(P, k, d, brk)
        before, z, s, e = vm.before_table, vm.z_table, vm.s_table, vm.e_table
        width = d if d is not None and d < k else 0
        assert before.shape == (P.ground_size, P.ground_size, k)
        assert z.shape == (P.ground_size, k)
        assert s.shape == (P.ground_size, k - 1, width)
        assert e.shape == (k - 1, P.ground_size - 1 if brk else 0)
        for x, a in enumerate(P.element_ids()):
            for i in range(1, k + 1):
                assert z[x, i - 1] == vm.z(a, i)
                for y, b in enumerate(P.element_ids()):
                    want = 0 if a == b else vm.before(a, b, i)
                    assert before[x, y, i - 1] == want
            for i in range(1, k):
                for j in range(1, width + 1):
                    assert s[x, i - 1, j - 1] == vm.s(a, i, j)
        for i in range(1, k):
            for j in range(1, e.shape[1] + 1):
                assert e[i - 1, j - 1] == vm.e(i, j)
        # the tables cover every variable once
        ids = np.concatenate([t.ravel() for t in (before, z, s, e)])
        assert sorted(ids[ids > 0].tolist()) == list(
            range(1, vm.total_count + 1))
        for table in (before, z, s, e):
            assert not table.flags.writeable


def _poset(spec):
    if spec.startswith("relabelled-"):
        return _Relabelled(build_poset(spec.removeprefix("relabelled-")))
    return build_poset(spec)


_ORACLE_INSTANCES = [
    ("chain:1", 2, 1), ("chain:1", 1, 1), ("chain:2", 2, 1), ("chain:4", 3, 2),
    ("antichain:3", 3, 2), ("boolean:2", 4, 2), ("boolean:3", 12, 3),
    ("boolean:3", 24, 3), ("boolean:3", 4, 5), ("boolean:4", 16, 2),
    ("singleton:3", 6, 2), ("multiset-singleton:2:3", 6, 2),
    ("relabelled-boolean:3", 6, 2)]


@pytest.mark.parametrize("spec,k,d", _ORACLE_INSTANCES)
def test_encode_matches_oracle(spec, k, d):
    P = _poset(spec)
    formula, vm = encode(P, k, d)
    assert formula.variable_count == vm.total_count
    assert vm.variable_count == VarMap(P, k).variable_count
    assert formula.clauses == list(oracle.clauses(P, VarMap(P, k), d))


@pytest.mark.parametrize("spec,k,d", _ORACLE_INSTANCES)
def test_symmetry_break_matches_oracle(spec, k, d):
    P = _poset(spec)
    formula, vm = encode(P, k, d, symmetry_break=True)
    assert formula.variable_count == vm.total_count
    assert formula.clauses == list(oracle.clauses(P, VarMap(P, k), d, True))
    streamed, streamed_vm = encode(P, k, d, symmetry_break=True, stream=True)
    assert streamed_vm.total_count == vm.total_count
    assert list(streamed.clauses) == formula.clauses


@pytest.mark.parametrize("spec,k,d", _ORACLE_INSTANCES)
def test_expected_clause_count_matches_encode(spec, k, d):
    P = _poset(spec)
    for brk in (False, True):
        assert encode(P, k, d, brk)[0].clause_count == expected_clause_count(
            P, k, d, brk) == oracle.clause_count(P, k, d, brk)


@pytest.mark.parametrize("spec,k,d,kept", [
    ("boolean:4", 24, 3, 40983), ("boolean:5", 48, 3, 737309),
    ("multiset:3:3", 40, 3, 286442), ("multiset-singleton:3:3", 39, 3, 486999),
    ("singleton:5", 46, 3, 1076576)])
def test_clause_counts_of_search_queries(spec, k, d, kept):
    # queries of ldim_certificate's search, with the break, too large to
    # encode here
    P = build_poset(spec)
    assert expected_clause_count(P, k, d, True) == kept
    assert oracle.clause_count(P, k, d, True) == kept


@pytest.mark.parametrize("spec,k,d", _ORACLE_INSTANCES)
def test_encoder_literals_are_well_formed(spec, k, d):
    # the bulk loader files the encoder's clauses unchecked: no zero,
    # out-of-range, repeated or complementary literal in any family
    P = _poset(spec)
    for brk in (False, True):
        formula, vm = encode(P, k, d, brk)
        for clause in formula.clauses:
            assert clause, (spec, brk)
            assert all(0 < abs(lit) <= vm.total_count for lit in clause)
            assert len({abs(lit) for lit in clause}) == len(clause), clause


@pytest.mark.parametrize("spec,k,d", _ORACLE_INSTANCES)
def test_dropped_clauses_follow_by_propagation(spec, k, d):
    # every clause that encode leaves out is derived from the kept ones,
    # reverse units included, by unit propagation alone
    P = _poset(spec)
    kept = encode(P, k, d)[0].clauses
    full = Counter(tuple(sorted(c)) for c in
                   oracle.clauses(P, VarMap(P, k), d, trim=False))
    held = Counter(tuple(sorted(c)) for c in kept)
    assert not held - full
    dropped = [list(c) for c in (full - held).elements()]
    assert len(dropped) == full.total() - len(kept)
    assert oracle.not_implied_by_propagation(kept, dropped) == []
    if dropped:
        # the reverse units do the work
        assert oracle.not_implied_by_propagation(
            [c for c in kept if len(c) > 1], dropped[:10])


def test_propagation_check_rejects_what_does_not_follow():
    P = BooleanLattice(2)
    vm = VarMap(P, 4)
    kept = encode(P, 4, 2)[0].clauses
    unused = [-vm.z(0, 1)]                      # order 1 may go unused
    used = [vm.z(0, 1)]
    assert oracle.not_implied_by_propagation(kept, [unused, used]) == [
        unused, used]


# SHA-256 of the DIMACS text, as the encoder with the sequential counter
# and without the clauses that the reverse units settle writes it, and of
# the map; multiset-singleton:2:3 has ids from 1 and, with the break, an e
# block
_PINNED = (
    ("boolean:3", 24, 3, False,
     "9a45cf0cd0ac8392c5050f9c9de36e1164e00065a676b143a753be3597fce2b1",
     "b01a3e398afe6d3a6b48e36512316a7318c38214887426e93bff5a82ed934270"),
    ("boolean:4", 16, 2, False,
     "efe38c52be1c8c62daa844f43cb93fe517757e12d0d0013c1742d2d876b5d7e2",
     "8c9470a5db284e55e246cad50ad2f82c3418c038ef17b14f05a178895b88c45c"),
    ("multiset-singleton:2:3", 8, 2, True,
     "8d53d86c6c1e8bdd0f7dfcaf603683bc0d618e450407c07d5208243ab9ebc5f9",
     "92e2c3da1ad9649a61a9fd0cb39457f0a25c3009d6a4b918df1aa5062780f38f"))


@pytest.mark.parametrize("spec,k,d,brk,digest,map_digest", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}-{case[2]}-{case[4]}")
    for case in _PINNED])
def test_dimacs_bytes_pinned(spec, k, d, brk, digest, map_digest):
    formula, vm = encode(build_poset(spec), k, d, brk)
    buf, map_buf = io.StringIO(), io.StringIO()
    write_dimacs(formula, vm, buf, map_buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
    assert hashlib.sha256(map_buf.getvalue().encode()).hexdigest() == map_digest


def test_encode_streams_clauses():
    # the whole list for this instance is 79,791 clauses and about 10 MB
    tracemalloc.start()
    try:
        formula, vm = encode(BooleanLattice(4), 48, 3, stream=True)
        first = list(islice(formula.clauses, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == list(islice(oracle.clauses(vm.P, vm, 3), 1000))
    assert peak < 4 * 2**20


def test_encode_stream_refuses_oversize():
    # 2 * 11,934,720 kept transitivity clauses alone pass the 2**24 limit,
    # though the bound with every pair comparable does not
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="clauses"):
            encode(BooleanLattice(8), 2, 1, stream=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _true_variables(vm, members):
    """Member i-1 placed in order i: its z variables and the before
    variables of its pairs in member order."""
    true = set()
    for i, member in enumerate(members, start=1):
        for p, a in enumerate(member):
            true.add(vm.z(a, i))
            true.update(vm.before(a, b, i) for b in member[p + 1:])
    return true


@pytest.mark.parametrize("spec,k,family", [
    ("boolean:7", 7, b7_family), ("boolean:8", 8, lambda: build_bn_realizer(8))])
def test_decode_matches_oracle_on_solver_models(spec, k, family):
    P = build_poset(spec)
    vm = VarMap(P, k)
    members = [tuple(m) for m in family()]
    true = _true_variables(vm, members)
    # a full assignment in solver output format, every variable signed
    model = parse_model_text("s SATISFIABLE\nv " + " ".join(
        str(v if v in true else -v) for v in range(1, vm.variable_count + 1))
        + " 0\n").model
    assert model.tolist() == sorted(true)
    decoded = decode_realizer(model, vm, P)
    assert list(decoded) == members
    assert decoded == oracle.decode_realizer(model.tolist(), vm, P)
    # variables above variable_count name nothing and change nothing
    beyond = model.tolist() + [vm.variable_count + 1, 2**40]
    assert decode_realizer(beyond, vm, P) == decoded
    assert oracle.decode_realizer(beyond, vm, P) == decoded


def _decoded_or_error(decode, model, vm, P):
    try:
        return decode(model, vm, P)
    except DecodeError as exc:
        return str(exc)


def test_decode_matches_oracle_on_random_models():
    rng = random.Random(20261018)
    P = BooleanLattice(3)
    vm = VarMap(P, 5)
    ids = list(P.element_ids())
    raised = {"valid": 0, "pair-dropped": 0, "random": 0}
    for trial in range(60):
        kind = ("valid", "pair-dropped", "random")[trial % 3]
        members = [rng.sample(ids, rng.randint(2 if i == 0 else 0, len(ids)))
                   for i in range(vm.k)]
        model = _true_variables(vm, members)
        if kind == "valid":
            # before variables of unused elements and variables beyond the
            # last are not read
            for i, member in enumerate(members, start=1):
                unused = [a for a in ids if a not in member]
                if member and unused:
                    model.add(vm.before(rng.choice(unused), member[0], i))
            model.add(vm.variable_count + rng.randint(1, 99))
        elif kind == "pair-dropped":
            p, q = sorted(rng.sample(range(len(members[0])), 2))
            model.discard(vm.before(members[0][p], members[0][q], 1))
        else:
            # a pair of the first order set both ways: whether that decodes
            # turns on the ranking's tie-break
            a, b = rng.sample(members[0], 2)
            model.add(vm.before(a, b, 1))
            model.add(vm.before(b, a, 1))
        got = _decoded_or_error(decode_realizer, sorted(model), vm, P)
        assert got == _decoded_or_error(oracle.decode_realizer, model, vm, P)
        raised[kind] += isinstance(got, str)
        if kind == "valid":
            assert list(got) == [tuple(m) for m in members if m]
    assert raised["pair-dropped"] == 20
    assert 0 < raised["random"] < 20


# ------------------------------------------- sequential counter and lex chain


def test_counter_caps_one_usage_row():
    # element 1 of boolean:1: the counter clauses over its z row, with the
    # row's values as units, are satisfiable exactly when at most d are true
    P = BooleanLattice(1)
    for k in range(2, 7):
        for d in range(1, k):
            formula, vm = encode(P, k, d)
            own = set(vm.s_table[1].ravel().tolist())
            counter = [c for c in formula.clauses
                       if any(abs(lit) in own for lit in c)]
            assert len(counter) == 2 * k * d + k - 3 * d - 1
            row = vm.z_table[1].tolist()
            for bits in product((0, 1), repeat=k):
                solver = Solver(vm.total_count)
                solver.load_trusted([list(c) for c in counter]
                                    + [[v if bit else -v]
                                       for v, bit in zip(row, bits)])
                assert solver.solve() == (sum(bits) <= d), (k, d, bits)


def _propagated(formula, true, assigned):
    """Values of every variable: ``assigned`` fixed (true if in ``true``),
    the rest forced by unit propagation, then false."""
    value = {v: v in true for v in assigned}
    pending = [c for c in formula.clauses
               if any(abs(lit) not in value for lit in c)]
    changed = True
    while changed:
        changed = False
        for clause in pending:
            if any(value.get(abs(lit)) == (lit > 0) for lit in clause):
                continue
            open_ = [lit for lit in clause if abs(lit) not in value]
            if len(open_) == 1:
                value[abs(open_[0])] = open_[0] > 0
                changed = True
    return lambda lit: value.get(abs(lit), False) == (lit > 0)


def _broken_clauses(formula, vm, members):
    # member i-1 in order i; x, y and z variables that it leaves unset are
    # false, and the counter and lex variables are propagated
    true = _true_variables(vm, members)
    holds = _propagated(formula, true, range(1, vm.variable_count + 1))
    return [c for c in formula.clauses if not any(map(holds, c))]


def _standard(n):
    """Order i puts the sets without element i below those with it."""
    canon = sorted(range(1 << n), key=lambda a: (a.bit_count(), a))
    return [tuple([a for a in canon if not a >> i & 1]
                  + [a for a in canon if a >> i & 1]) for i in range(n)]


@pytest.mark.parametrize("spec,k,family", [
    ("boolean:4", 8, lambda: [tuple(m) for m in b4_family()]),
    ("boolean:3", 12, lambda: _standard(3))])
def test_lex_sorted_padded_family_satisfies_encoding(spec, k, family):
    P = build_poset(spec)
    formula, vm = encode(P, k, 3, symmetry_break=True)
    index = {a: x for x, a in enumerate(P.element_ids())}
    members = family()
    members += [()] * (k - len(members))
    # without the break the family is a model in its own order
    plain, plain_vm = encode(P, k, 3)
    assert _broken_clauses(plain, plain_vm, members) == []

    def column(member):
        used = {index[a] for a in member}
        return [x in used for x in range(P.ground_size)]

    ranked = sorted(members, key=column, reverse=True)
    assert _broken_clauses(formula, vm, ranked) == []
    lex_vars = set(vm.e_table.ravel().tolist())
    first = [vm.z(P.element_ids()[0], i) for i in range(1, k + 1)]

    def is_lex(clause):
        return (any(abs(lit) in lex_vars for lit in clause)
                or clause in ([x, -y] for x, y in zip(first, first[1:])))

    # swapping two neighbours with different columns breaks the chain,
    # wherever the columns first differ
    swaps = 0
    for i in range(k - 1):
        if column(ranked[i]) != column(ranked[i + 1]):
            other = list(ranked)
            other[i:i + 2] = other[i + 1], other[i]
            assert any(map(is_lex, _broken_clauses(formula, vm, other)))
            swaps += 1
    assert swaps > 0
    # the b4 fixture's own order puts a smaller column before a larger one
    if members != ranked:
        assert any(map(is_lex, _broken_clauses(formula, vm, members)))


def test_search_solves_the_broken_instance(monkeypatch):
    seen = []
    load = Solver.load_trusted

    def capture(solver, clauses):
        seen.append((solver.variable_count, list(clauses)))
        return load(solver, [list(c) for c in seen[-1][1]])

    monkeypatch.setattr(Solver, "load_trusted", capture)
    P = BooleanLattice(2)
    assert solve_instance(P, 4, 1)[0].status == "unsat"
    formula, _ = encode(P, 4, 1, symmetry_break=True)
    assert seen == [(formula.variable_count, formula.clauses)]


def test_frozen_ldim_boolean4():
    # d = 2 at k = 16 is unsat by the in-process solver; that answer is
    # trusted as it stands, no proof of it is checked yet
    P = BooleanLattice(4)
    d, fam = ldim_certificate(P)
    assert d == 3
    rep = verify_local_realizer(P, fam)
    assert rep.accepted and rep.frequency == 3
    # the `ldim -o` bytes, as a search that posed d = 1 gave them
    assert emit_orders_text(fam) == (
        "0 4 2 6 8 10 14 1 3 7 9 11\n0 1 8 2 9 10 11 4 6 12 14 5 13 7\n"
        "0 3 4 5 7 8 12 13 10 14 11 15\n12 1 5 9 13 2 3 6 15\n")


# ------------------------------------------------------------ DIMACS reading


def _random_dimacs(rng):
    """DIMACS text with comments between and inside clause runs, clauses
    split across lines and blank and indented lines, ended by LF, CRLF, CR
    or another line boundary of str.splitlines."""
    v = rng.randint(1, 30)
    clauses = [[rng.choice((-1, 1)) * rng.randint(1, v)
                for _ in range(rng.randint(0, 6))] for _ in range(rng.randint(0, 40))]
    tokens = [str(lit) for clause in clauses for lit in clause + [0]]
    if tokens and rng.random() < 0.3:
        tokens.pop()        # a last clause without its 0
        if clauses[-1] == []:
            clauses.pop()
    lines, line = ["c random", f"p cnf {v} {len(clauses)}"], []
    for token in tokens:
        line.append(token)
        if rng.random() < 0.25:
            lines.append(" ".join(line))
            line = []
            if rng.random() < 0.2:
                lines.append(rng.choice(("c between", "   c indented", "",
                                         "\t", "c")))
    lines.append(" ".join(line))
    eol = rng.choice(("\n", "\r\n", "\r", "\f", "\u2028"))
    return eol.join(lines) + rng.choice(("", eol)), v, clauses


def test_parse_dimacs_matches_line_loop():
    rng = random.Random(8)
    for _ in range(300):
        text, v, clauses = _random_dimacs(rng)
        want = oracle.parse_dimacs(text)
        assert want == (v, clauses)
        for source in (text, io.StringIO(text)):
            formula = parse_dimacs(source)
            assert (formula.variable_count, formula.clauses) == want
    # no line feed at all
    for text in ("p cnf 0 0", "p cnf 2 1\r1 2 0\r"):
        formula = parse_dimacs(text)
        assert (formula.variable_count, formula.clauses) == (
            oracle.parse_dimacs(text))
    formula, vm = encode(BooleanLattice(3), 12, 3)
    buf = io.StringIO()
    write_dimacs(formula, vm, buf)
    assert oracle.parse_dimacs(buf.getvalue()) == (
        formula.variable_count, parse_dimacs(buf.getvalue()).clauses)


def test_parse_dimacs_names_a_bad_token(tmp_path):
    from ldimkit import FormatError, satshim
    # numpy alone would read a lone sign as 0 or join it to the next token
    for text, token in (("p cnf 2 1\n1 x 0\n", "'x'"),
                        ("p cnf 2 1\n1 2 0 %\n", "'%'"),
                        ("p cnf 2 1\n1.5 0\n", "'1.5'"),
                        ("p cnf 2 1\n1 - 2 0\n", "'-'"),
                        ("p cnf 2 1\n1 2 0 +\n", "'\\+'")):
        with pytest.raises(FormatError, match=token):
            parse_dimacs(text)
        path = tmp_path / "bad.cnf"
        path.write_text(text)
        assert satshim.main([str(path)]) == 3
    for header in ("p cnf two 1", "p cnf 2 \u00b2", "p cnf +2 1"):
        with pytest.raises(FormatError, match="header"):
            parse_dimacs(header + "\n1 0\n")
    with pytest.raises(SolverProtocolError, match="'-'"):
        parse_model_text("s SATISFIABLE\nv 1 - 2 0\n")
    # a literal beyond int64 is clipped, whether numpy or int() reads it
    # (numpy does not split at a no-break space)
    huge = 10**30
    for sep in (" ", "\u00a0"):
        formula = parse_dimacs(f"p cnf 2 1\n1{sep}{-huge} {huge} 0\n")
        assert formula.clauses == [[1, -2**63, 2**63 - 1]]


def test_lone_sign_across_slices(monkeypatch):
    import ldimkit.intparse
    texts = ["1 -2 0 +3 0", "1 - 2 0", "1 2 0 -", "-1 +", "+ 1", "-10 -20 0"]
    for size in (1, 2, 3, 4):
        monkeypatch.setattr(ldimkit.intparse, "_SIGN_SLICE", size)
        for text in texts:
            try:
                want = [int(token) for token in text.split()]
            except ValueError:
                with pytest.raises(SolverProtocolError):
                    parse_model_text(f"s SATISFIABLE\nv {text}\n")
            else:
                got = parse_model_text(f"s SATISFIABLE\nv {text}\n").model
                assert got.tolist() == [lit for lit in want if lit > 0]


# solver output for the model reader: comments, several and bare 'v' lines,
# signs and lone signs, int64 overflow, bad tokens, blanks that are not
# line ends (no-break space, unit separator), every status case
_MODEL_TEXTS = [
    "c comment\ns SATISFIABLE\nv 1 -2 3 0\n",
    "c a\nc b\ns SATISFIABLE\nv 1 -2\nv 3\nv\nv -4 +5 0\nc done\n",
    "s SATISFIABLE\nv\n", "s SATISFIABLE\n  v \t\n", "s SATISFIABLE\nv +3 0",
    "s SATISFIABLE\nv 12 - 3 0\n", "s SATISFIABLE\nv 1 2 -\n",
    "s SATISFIABLE\nv + 1\nv 2 +", "s SATISFIABLE\nv 1 -\nv 2\n",
    "s SATISFIABLE\nv 99999999999999999999 -99999999999999999999 7 0\n",
    "s SATISFIABLE\nv 9223372036854775807 9223372036854775808 0\n",
    "s SATISFIABLE\nv 1 x 0\n", "v 1 x 0\ns UNKNOWN\n", "v 1 x y\n",
    "s SATISFIABLE\nv 1\u00a02 3 0\n", "s SATISFIABLE\n\u00a0v 4 0\u00a0\n",
    "s SATISFIABLE\nv 1\x1f2 0\n", "s SATISFIABLE\nv\u00a01 2\n",
    "s UNKNOWN\nv 1 0\n", "s  unknown  \n", "s\n", "v 1 2 0\n",
    "no verdict here\n", "", "s SATISFIABLE\n", "s UNSATISFIABLE\nv 1 0",
    "s unsatisfiable\ns satisfiable\nv 5", "s SATISFIABLE\nv 1\ns UNSATISFIABLE",
    "v\ts SATISFIABLE", "s\tSATISFIABLE\nv 1\n", "s\t \nv 1",
    "  v\t \ns SATISFIABLE", "v\t1 2\ns SATISFIABLE", "vv 1\ns SATISFIABLE",
    "svelte\ns SATISFIABLE\nvalue 1\nv 2", "s SATISFIABLE\nv 1_0 \u0663 0\n",
] + [
    # each line end of str.splitlines, between lines and inside a 'v' line
    f"c x{end}s SATISFIABLE{end}v 1 -2{end}v 3 0{end}c{end}v 4{end}5 0"
    for end in ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                "\x85", "\u2028", "\u2029")]


def _random_model_text(rng):
    tokens = ["1", "-2", "+3", "0", "-", "+", "17", "-40", "x", "1.5",
              "123456789", "99999999999999999999", "-99999999999999999999"]
    blanks = [" ", "  ", "\t", "\u00a0", "\x1f"]
    ends = ["\n", "\r\n", "\r", "\x0b", "\x85", "\u2028"]
    lines = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.choice("vvvvsscx")
        if kind == "s":
            line = "s " + rng.choice(["SATISFIABLE", "UNSATISFIABLE",
                                      "satisfiable", "UNKNOWN"])
        elif kind == "v":
            line = "v" + "".join(rng.choice(blanks) + rng.choice(tokens)
                                 for _ in range(rng.randint(0, 8)))
        else:
            line = kind + " " + rng.choice(tokens)
        lines.append(rng.choice(["", " ", "\u00a0"]) + line
                     + rng.choice(["", " ", "\t"]))
    return "".join(line + rng.choice(ends) for line in lines)


def _model_or_error(parse, text):
    try:
        result = parse(text)
    except SolverProtocolError as exc:
        return "error", str(exc)
    if result is None or isinstance(result, tuple):
        return result
    assert result.model is None or result.model.dtype == np.int64
    return result.status, (None if result.model is None
                           else result.model.tolist())


def test_sat_reads_the_io_names_from_dimacs(monkeypatch):
    import ldimkit.dimacs
    import ldimkit.sat
    for name in ("write_dimacs", "parse_dimacs", "parse_model_text",
                 "read_model", "run_solver"):
        assert getattr(ldimkit.sat, name) is getattr(ldimkit.dimacs, name)
    # the private names are not read through sat, so that a patch of one
    # there fails instead of patching nothing
    for name in ("_MODEL_SLICE", "_DIMACS_LINE", "_SIGN_SLICE", "no_such"):
        with pytest.raises(AttributeError, match=name):
            monkeypatch.setattr(ldimkit.sat, name, 1)


@pytest.mark.parametrize("size", [1, 2, 3, 7, 64])
def test_model_reader_at_any_slice(monkeypatch, size):
    import ldimkit.dimacs
    import ldimkit.sat
    monkeypatch.setattr(ldimkit.dimacs, "_MODEL_SLICE", size)
    rng = random.Random(size)
    texts = _MODEL_TEXTS + [_random_model_text(rng) for _ in range(150)]
    outcomes = Counter()
    for text in texts:
        want = _model_or_error(oracle.parse_model_text, text)
        assert _model_or_error(parse_model_text, text) == want, text
        assert _model_or_error(lambda text: ldimkit.sat.read_model(
            io.StringIO(text, newline="")), text) == want, text
        outcomes[want[0] if want else None] += 1
    assert outcomes["sat"] and outcomes["unsat"] and outcomes["error"]
    assert outcomes[None]


def _boolean8_model(path):
    """The built boolean:8 family as a model file of one 'v' line with
    every variable signed, like the benchmark's."""
    P = build_poset("boolean:8")
    vm = VarMap(P, 8)
    members = [tuple(m) for m in build_bn_realizer(8)]
    true = _true_variables(vm, members)
    path.write_text("s SATISFIABLE\nv " + " ".join(
        str(v if v in true else -v) for v in range(1, vm.variable_count + 1))
        + " 0\n")
    return P, vm, members


def test_decode_reads_no_before_table(monkeypatch, tmp_path):
    from ldimkit.sat import read_model

    def refuse(self):
        raise AssertionError("decode read VarMap.before_table")

    P, vm, members = _boolean8_model(tmp_path / "b8.model")
    P.element_ids()
    monkeypatch.setattr(VarMap, "before_table", property(refuse))
    tracemalloc.start()
    try:
        with open(tmp_path / "b8.model", encoding="utf-8") as handle:
            family = decode_realizer(read_model(handle).model, vm, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(family) == members
    # the whole-text parse and the N x N x k table took 16.9 MB here
    assert peak < 4 * 2**20
    C = Chain(3)
    small = VarMap(C, 2)
    with pytest.raises(DecodeError, match="order 2"):
        decode_realizer([small.z(0, 2), small.z(2, 2)], small, C)
    assert list(decode_realizer([small.z(1, 1)], small, C)) == [(1,)]


class _Discard:
    def write(self, text):
        pass


def test_write_dimacs_checks_the_declared_count():
    formula, vm = encode(BooleanLattice(2), 3, 2, True)
    count = formula.clause_count
    for declared in (count - 1, count + 1):
        short = CnfFormula(formula.variable_count, iter(formula.clauses),
                           declared)
        with pytest.raises(DecodeError, match=(
                f"declares {declared} clauses, the stream gave {count}")):
            write_dimacs(short, vm, io.StringIO())
    # the streamed formula writes the list's bytes, and holds no list:
    # the list of this instance takes about 10 MB
    for spec, k, d, brk in (("boolean:2", 3, 2, True), ("chain:1", 2, 1, True),
                            ("boolean:3", 24, 3, False)):
        P = build_poset(spec)
        listed, vm = encode(P, k, d, brk)
        streamed, _ = encode(P, k, d, brk, stream=True)
        assert streamed.clause_count == expected_clause_count(P, k, d, brk)
        bufs = io.StringIO(), io.StringIO()
        for formula, buf in zip((listed, streamed), bufs):
            write_dimacs(formula, vm, buf)
        assert bufs[0].getvalue() == bufs[1].getvalue()
    tracemalloc.start()
    try:
        streamed, vm = encode(BooleanLattice(4), 48, 3, stream=True)
        write_dimacs(streamed, vm, _Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_satshim_writes_the_v_line_in_slices(tmp_path, capsys, monkeypatch):
    from ldimkit import satshim
    cnf, empty = tmp_path / "f.cnf", tmp_path / "empty.cnf"
    cnf.write_text("p cnf 5 2\n-1 0\n2 -3 0\n")
    empty.write_text("p cnf 0 0\n")
    outputs = set()
    for size in (1, 2, 4, 1024):
        monkeypatch.setattr(satshim, "_CHUNK_ROWS", size)
        assert satshim.main([str(cnf)]) == 10
        outputs.add(capsys.readouterr().out)
        assert satshim.main([str(empty)]) == 10
        assert capsys.readouterr().out == "s SATISFIABLE\nv  0\n"
    # one output at every slice size, as one join of the signed variables
    # writes it
    (out,) = outputs
    signed = [int(t) for t in out.splitlines()[1].split()[1:-1]]
    assert [abs(lit) for lit in signed] == [1, 2, 3, 4, 5]
    assert out == "s SATISFIABLE\nv " + " ".join(map(str, signed)) + " 0\n"


def test_map_lines_name_every_role():
    formula, vm = encode(Chain(2), 3, 1, symmetry_break=True)
    buf = io.StringIO()
    write_dimacs(formula, vm, io.StringIO(), buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == vm.total_count == 18
    assert lines[:2] == ["x 0 1 1 1", "y 0 1 1 2"]
    assert lines[6:8] == ["z 0 - 1 7", "z 0 - 2 8"]
    # s(A, i, j) as "s A j i", e(i, j) as "e - j i"
    assert lines[12:] == ["s 0 1 1 13", "s 0 1 2 14", "s 1 1 1 15",
                          "s 1 1 2 16", "e - 1 1 17", "e - 1 2 18"]


def test_model_reader_holds_the_literals_once(tmp_path):
    from ldimkit.sat import read_model

    _boolean8_model(tmp_path / "b8.model")
    with open(tmp_path / "b8.model", encoding="utf-8") as handle:
        want = read_model(handle).model
    tracemalloc.start()
    try:
        with open(tmp_path / "b8.model", encoding="utf-8") as handle:
            model = read_model(handle).model
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.tolist() == want.tolist()
    # one array per slice joined at the end held the 1.14 MB model twice,
    # a 2.35 MB peak here; the one growing buffer peaks at 1.71 MB
    assert peak < model.nbytes + 2**20

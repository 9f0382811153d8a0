import io
import shlex
import subprocess
import sys

import pytest

from ldimkit import (Antichain, BooleanLattice, Chain, DecodeError,
                     ParameterError, SingletonPoset, SolverEnvironmentError,
                     SolverProtocolError, VarMap, decode_realizer, encode,
                     expected_clause_count, ldim_certificate, ldim_exact,
                     parse_dimacs, parse_model_text, resolve_solver_command,
                     run_solver, solve_instance, verify_local_realizer,
                     write_dimacs)
from ldimkit.sat import SOLVER_ENV_VAR

from tests import oracle


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
    P = Chain(3)
    vm = VarMap(P, 2)
    for var in range(1, vm.variable_count + 1):
        role, a, b, i = vm.describe(var)
        if role == "z":
            assert b is None
            assert vm.z(a, i) == var
        elif role == "x":
            assert vm.before(a, b, i) == var
        else:
            assert vm.before(b, a, i) == var
    with pytest.raises(ParameterError):
        vm.describe(0)
    with pytest.raises(ParameterError):
        vm.before(1, 1, 1)
    with pytest.raises(ParameterError):
        vm.z(0, 5)


def test_encode_counts():
    P = BooleanLattice(2)
    formula, vm = encode(P, 2, 2)
    assert formula.variable_count == 32
    n_comp = sum(1 for a in P.element_ids() for b in P.element_ids()
                 if a < b and (P.leq(a, b) or P.leq(b, a)))
    n_inc = 6 - n_comp
    assert formula.clause_count == expected_clause_count(4, n_comp, n_inc, 2, 2)

    lone, _ = encode(Chain(1), 2, 1)
    assert lone.clause_count == expected_clause_count(1, 0, 0, 2, 1)
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
    assert lines[-1].split()[0] == "z"

    buf = io.StringIO()
    write_dimacs(formula, vm, buf)
    assert parse_dimacs(buf.getvalue()).clauses == formula.clauses


def test_parse_dimacs_errors():
    from ldimkit import FormatError
    with pytest.raises(FormatError):
        parse_dimacs("1 2 0\n")  # no header
    with pytest.raises(FormatError):
        parse_dimacs("p cnf 2 5\n1 2 0\n")  # clause count mismatch


def test_parse_model_text():
    res = parse_model_text("c comment\ns SATISFIABLE\nv 1 -2 3 0\n")
    assert res.status == "sat" and res.model == {1, 3}
    res = parse_model_text("s SATISFIABLE\nv 1 -2\nv 3\nv 0\n")
    assert res.model == {1, 3}
    res = parse_model_text("s UNSATISFIABLE\n")
    assert res.status == "unsat" and res.model is None
    assert parse_model_text("no verdict here\n") is None
    with pytest.raises(SolverProtocolError):
        parse_model_text("s SATISFIABLE\n")


def test_resolve_solver_command(monkeypatch):
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
    assert resolve_solver_command() == [sys.executable, "-m",
                                        "ldimkit.satshim"]
    monkeypatch.setenv(SOLVER_ENV_VAR, "mysolver --opt")
    assert resolve_solver_command() == ["mysolver", "--opt"]
    assert resolve_solver_command("other") == ["other"]
    assert resolve_solver_command(["a", "b"]) == ["a", "b"]


def test_run_solver_round_trip(tmp_path):
    sat = tmp_path / "sat.cnf"
    sat.write_text("p cnf 2 1\n1 2 0\n")
    res = run_solver(sat)
    assert res.status == "sat"
    assert res.model is not None and (1 in res.model or 2 in res.model)
    unsat = tmp_path / "unsat.cnf"
    unsat.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert run_solver(unsat).status == "unsat"


def test_run_solver_environment_errors(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    with pytest.raises(SolverEnvironmentError):
        run_solver(cnf, ["/nonexistent/solver-binary"])
    with pytest.raises(SolverProtocolError):
        run_solver(cnf, [sys.executable, "-c", "print('hello')"])
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
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)

    def no_spawn(*args, **kwargs):
        raise AssertionError("the default backend spawned a process")

    monkeypatch.setattr(subprocess, "run", no_spawn)
    monkeypatch.setattr(subprocess, "Popen", no_spawn)
    result, fam = solve_instance(BooleanLattice(2), 4, 2)
    assert result.status == "sat" and verify_local_realizer(
        BooleanLattice(2), fam).accepted
    assert solve_instance(BooleanLattice(2), 4, 1)[0].status == "unsat"


def test_external_solver_is_opt_in(monkeypatch):
    shim = f"{shlex.quote(sys.executable)} -m ldimkit.satshim"
    B = BooleanLattice(2)
    result, fam = solve_instance(B, 4, 2, [sys.executable, "-m",
                                           "ldimkit.satshim"])
    assert result.status == "sat" and oracle.check_family(B, fam)[0]
    monkeypatch.setenv(SOLVER_ENV_VAR, shim)
    assert solve_instance(B, 4, 1)[0].status == "unsat"
    monkeypatch.setenv(SOLVER_ENV_VAR, "/nonexistent/solver-binary")
    with pytest.raises(SolverEnvironmentError):
        solve_instance(B, 4, 1)


def test_decode_rejects_inconsistent_model():
    C = Chain(2)
    vm = VarMap(C, 1)
    # both elements used, but neither before-variable set
    with pytest.raises(DecodeError):
        decode_realizer({vm.z(0, 1), vm.z(1, 1)}, vm, C)


def test_decode_drops_empty_orders():
    C = Chain(2)
    vm = VarMap(C, 3)
    model = {vm.z(0, 2), vm.z(1, 2), vm.before(0, 1, 2)}
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

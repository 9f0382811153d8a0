import hashlib
import io
import random
import shlex
import subprocess
import sys
import tracemalloc
from itertools import islice

import pytest

from ldimkit import (Antichain, BooleanLattice, Chain, DecodeError,
                     ParameterError, SingletonPoset, SolverEnvironmentError,
                     SolverProtocolError, VarMap, b7_family, build_bn_realizer,
                     build_poset, decode_realizer, encode,
                     expected_clause_count, ldim_certificate, ldim_exact,
                     parse_dimacs, parse_model_text, resolve_solver_command,
                     run_solver, solve_instance, verify_local_realizer,
                     write_dimacs)
from ldimkit.sat import SOLVER_ENV_VAR, iter_clauses

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


# ------------------------------------ table-built encoder and decoder vs. oracle


def test_varmap_tables_match_scalar_lookups():
    for P, k in ((Chain(1), 2), (Chain(3), 2), (BooleanLattice(3), 3),
                 (_Relabelled(SingletonPoset(3)), 2)):
        vm = VarMap(P, k)
        before, z = vm.before_table, vm.z_table
        assert before.shape == (P.ground_size, P.ground_size, k)
        assert z.shape == (P.ground_size, k)
        for x, a in enumerate(P.element_ids()):
            for i in range(1, k + 1):
                assert z[x, i - 1] == vm.z(a, i)
                for y, b in enumerate(P.element_ids()):
                    want = 0 if a == b else vm.before(a, b, i)
                    assert before[x, y, i - 1] == want
        assert not before.flags.writeable and not z.flags.writeable


def _poset(spec):
    if spec.startswith("relabelled-"):
        return _Relabelled(build_poset(spec.removeprefix("relabelled-")))
    return build_poset(spec)


@pytest.mark.parametrize("spec,k,d", [
    ("chain:1", 2, 1), ("chain:1", 1, 1), ("chain:2", 2, 1), ("chain:4", 3, 2),
    ("antichain:3", 3, 2), ("boolean:2", 4, 2), ("boolean:3", 12, 3),
    ("boolean:3", 24, 3), ("boolean:3", 4, 5), ("boolean:4", 16, 2),
    ("singleton:3", 6, 2), ("multiset-singleton:2:3", 6, 2),
    ("relabelled-boolean:3", 6, 2)])
def test_encode_matches_oracle(spec, k, d):
    P = _poset(spec)
    formula, vm = encode(P, k, d)
    assert formula.variable_count == vm.variable_count
    assert formula.clauses == list(oracle.clauses(P, VarMap(P, k), d))


# SHA-256 of the DIMACS text, as the scalar encoder and writer produced it
@pytest.mark.parametrize("spec,k,d,digest", [
    ("boolean:3", 24, 3,
     "c5889ddf606e2efa128af34bff0506e08a594974d85ccf6a41e1225276c94a5f"),
    ("boolean:4", 16, 2,
     "3cd7b31c4d6c2abe27345dbf709110310211ea612f6c902207c6c83536c33193")])
def test_dimacs_bytes_pinned(spec, k, d, digest):
    formula, vm = encode(build_poset(spec), k, d)
    buf = io.StringIO()
    write_dimacs(formula, vm, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_iter_clauses_streams():
    # the whole list for this instance is 3.3M clauses and hundreds of MB
    tracemalloc.start()
    try:
        vm, clauses = iter_clauses(BooleanLattice(4), 48, 3)
        first = list(islice(clauses, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == list(islice(oracle.clauses(vm.P, vm, 3), 1000))
    assert peak < 4 * 2**20


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
    assert model == true
    decoded = decode_realizer(model, vm, P)
    assert list(decoded) == members
    assert decoded == oracle.decode_realizer(model, vm, P)
    # variables above variable_count name nothing and change nothing
    beyond = model | {vm.variable_count + 1, 2**40}
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
        got = _decoded_or_error(decode_realizer, model, vm, P)
        assert got == _decoded_or_error(oracle.decode_realizer, model, vm, P)
        raised[kind] += isinstance(got, str)
        if kind == "valid":
            assert list(got) == [tuple(m) for m in members if m]
    assert raised["pair-dropped"] == 20
    assert 0 < raised["random"] < 20

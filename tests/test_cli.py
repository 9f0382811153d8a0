import json
import shlex
import sys
import time
import tracemalloc

import pytest

from ldimkit import fixture_text, parse_orders_text
from ldimkit.cli import main
from ldimkit.satshim import main as satshim_main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_accept(capsys, tmp_path):
    path = tmp_path / "b4.orders"
    path.write_text(fixture_text("b4"))
    code, out, err = run(capsys, "verify", "--poset", "boolean:4",
                         "--orders", str(path))
    assert code == 0
    assert "accepted: true" in out and "frequency: 3" in out


def test_verify_reject_lists_kind(capsys, tmp_path):
    path = tmp_path / "bad.orders"
    path.write_text("1 0\n0 1\n")
    code, out, err = run(capsys, "verify", "--poset", "chain:2",
                         "--orders", str(path))
    assert code == 1
    assert "accepted: false" in out
    assert "comparable-pair-reversed" in out


def test_verify_reject_single_reversed_row(capsys, tmp_path):
    path = tmp_path / "bad.orders"
    path.write_text("1 0\n")
    code, out, err = run(capsys, "verify", "--poset", "boolean:4",
                         "--orders", str(path))
    assert code == 1
    assert "order-violation-in-ple" in out


def test_verify_json(capsys, tmp_path):
    path = tmp_path / "b4.orders"
    path.write_text(fixture_text("b4"))
    code, out, err = run(capsys, "verify", "--poset", "boolean:4",
                         "--orders", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["accepted"] is True
    assert payload["frequency"] == 3 and payload["size"] == 4


def test_usage_errors(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "--poset", "nosuch:2",
                         "--orders", str(tmp_path / "x"))
    assert code == 2
    assert err.startswith("ERROR:usage:")
    code, out, err = run(capsys, "nosuchcommand")
    assert code == 2
    assert err.startswith("ERROR:usage:")
    code, out, err = run(capsys, "verify", "--poset", "chain:2")
    assert code == 2


def test_malformed_orders_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.orders"
    path.write_text("1 x\n")
    code, out, err = run(capsys, "verify", "--poset", "chain:2",
                         "--orders", str(path))
    assert code == 2 and err.startswith("ERROR:usage:")


def test_oversize_poset_is_usage_error(capsys, tmp_path):
    path = tmp_path / "b24.orders"
    path.write_text("0 1\n")
    code, out, err = run(capsys, "verify", "--poset", "boolean:24",
                         "--orders", str(path))
    assert code == 2 and out == ""
    assert err == ("ERROR:usage: boolean:24: packed order rows would "
                   "need 536870912 bytes\n")


def test_build_refuses_oversize_poset_before_building(capsys):
    # the modules the command imports are loaded first, so that the peak
    # counts only what the command allocates
    import ldimkit.realizers
    import ldimkit.singletons
    # one block of 256 rows of 2^18 words each
    for spec, need in (("boolean:24", 536870912), ("singleton:24", 536870912)):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "build", "--poset", spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == (f"ERROR:usage: {spec}: packed order rows would need "
                       f"{need} bytes\n")
        assert peak < 1 << 20


@pytest.mark.parametrize("spec", ["boolean:100000", "multiset:20000:3",
                                  "singleton:20000"])
def test_huge_poset_spec_is_usage_error(capsys, tmp_path, spec):
    path = tmp_path / "one.orders"
    path.write_text("1\n")
    for argv in (("verify", "--orders", str(path)), ("build",),
                 ("encode", "--k", "1", "--d", "1"), ("ldim",)):
        code, out, err = run(capsys, *argv, "--poset", spec)
        assert (code, out) == (2, ""), argv
        assert err.startswith("ERROR:usage: ") and err.endswith(
            " would have 2^63 or more elements; ids are int64\n")
    code, out, err = run(capsys, "analyze", "signature", "--n", "20000",
                         "--m", "3", "--orders", str(path))
    assert (code, out) == (2, "")
    assert err == ("ERROR:usage: signature audit is limited to m^n <= 256, "
                   "got 3^20000\n")


def test_out_of_range_orders_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.orders"
    path.write_text("0 9\n")
    code, out, err = run(capsys, "verify", "--poset", "chain:2",
                         "--orders", str(path))
    assert code == 2 and err.startswith("ERROR:input:")


@pytest.mark.parametrize("big", [1 << 63, -(1 << 63) - 1])
def test_orders_id_beyond_int64_is_input_error(capsys, tmp_path, big):
    path = tmp_path / "big.orders"
    path.write_text(f"1 {big} 3\n")
    for argv in (("verify", "--poset", "multiset-singleton:2:2"),
                 ("analyze", "signature", "--n", "2", "--m", "2")):
        code, out, err = run(capsys, *argv, "--orders", str(path))
        assert (code, out, err) == (2, "", (
            f"ERROR:input: element id {big} out of range for "
            f"multiset-singleton:2:2\n")), argv


@pytest.mark.parametrize("main_of, argv, code, head", [
    *[(main, ("verify", "--poset", spec, "--orders", "x.orders"), 2,
       "ERROR:usage: ")
      for spec in ("boolean:0", "chain:0", "antichain:0", "multiset:0:2",
                   "multiset:2:1")],
    (main, ("encode", "--poset", "chain:2", "--k", "0", "--d", "1"), 2,
     "ERROR:usage: "),
    (main, ("solve", "--poset", "chain:2", "--k", "0", "--d", "1",
            "--model", "F"), 2, "ERROR:usage: need k >= 1, got 0\n"),
    (main, ("ldim", "--poset", "chain:2", "--d-max", "0"), 2,
     "ERROR:usage: d_max must be >= 1, got 0\n"),
    (main, ("verify", "--poset", "chain:2", "--orders", "missing.orders"), 3,
     "ERROR:environment: "),
    (satshim_main, (), 2, "usage: python -m ldimkit.satshim"),
])
def test_refusals(capsys, tmp_path, monkeypatch, main_of, argv, code, head):
    monkeypatch.chdir(tmp_path)
    assert main_of(list(argv)) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(head)


def test_each_error_class_has_one_outcome(capsys, monkeypatch):
    # every class of ldimkit.errors is named here, so that a new one cannot
    # reach the user as a traceback unnoticed
    import inspect
    from ldimkit import cli, errors
    outcomes = {
        "ParameterError": ("usage", 2), "FormatError": ("usage", 2),
        "ContractError": ("input", 2), "RangeError": ("input", 2),
        "BoundExceededError": ("bound", 1),
        "SolverEnvironmentError": ("environment", 3),
        "SolverProtocolError": ("environment", 3),
        "OSError": ("environment", 3),
        "DecodeError": ("internal", 3), "LdimkitError": ("internal", 3)}
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__] + [OSError]
    assert {cls.__name__ for cls in classes} == set(outcomes)
    for cls in classes:
        def fail(args):
            raise cls("boom")
        monkeypatch.setattr(cli, "_cmd_tables", fail)
        category, exit_code = outcomes[cls.__name__]
        assert run(capsys, "tables", "b4") == (
            exit_code, "", f"ERROR:{category}: boom\n"), cls


def test_build_boolean(capsys, tmp_path):
    out_path = tmp_path / "b4.orders"
    code, out, err = run(capsys, "build", "--poset", "boolean:4",
                         "-o", str(out_path))
    assert code == 0
    assert "frequency: 3" in out and "bound: 3" in out
    rows = parse_orders_text(out_path.read_text())
    assert len(rows) == 4


def test_build_singleton_stdout(capsys):
    code, out, err = run(capsys, "build", "--poset", "singleton:4")
    assert code == 0
    rows = parse_orders_text(out)
    assert rows  # orders on stdout, summary on stderr
    assert "d: 1" in err and "frequency:" in err


def test_build_singleton_one_names_the_construction(capsys):
    code, out, err = run(capsys, "build", "--poset", "singleton:1")
    assert (code, out) == (2, "")
    assert err == "ERROR:usage: singleton construction needs n >= 2, got 1\n"


def test_build_rejects_other_kinds(capsys):
    code, out, err = run(capsys, "build", "--poset", "chain:3")
    assert code == 2 and err.startswith("ERROR:usage:")
    code, out, err = run(capsys, "build", "--poset", "boolean:3", "--d", "2")
    assert code == 2


def test_encode_file_and_stdout(capsys, tmp_path):
    cnf = tmp_path / "i.cnf"
    mp = tmp_path / "i.map"
    code, out, err = run(capsys, "encode", "--poset", "boolean:2",
                         "--k", "2", "--d", "2", "-o", str(cnf),
                         "--map", str(mp))
    assert code == 0
    assert "variables: 32" in out
    assert cnf.read_text().splitlines()[0] == "p cnf 32 59"
    assert mp.read_text().splitlines()[0] == "x 0 1 1 1"
    code, out, err = run(capsys, "encode", "--poset", "chain:2",
                         "--k", "1", "--d", "1")
    assert code == 0 and out.startswith("p cnf ")


def test_solve_sat_and_unsat(capsys, tmp_path):
    code, out, err = run(capsys, "solve", "--poset", "boolean:2",
                         "--k", "4", "--d", "1")
    assert code == 1 and "status: unsat" in out
    out_path = tmp_path / "w.orders"
    code, out, err = run(capsys, "solve", "--poset", "boolean:2",
                         "--k", "4", "--d", "2", "-o", str(out_path))
    assert code == 0 and "status: sat" in out
    rows = parse_orders_text(out_path.read_text())
    assert rows
    code, out, err = run(capsys, "solve", "--poset", "chain:2",
                         "--k", "1", "--d", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "sat" and payload["orders"] == [[0, 1]]
    code, out, err = run(capsys, "solve", "--poset", "antichain:2",
                         "--k", "1", "--d", "1", "--format", "json")
    assert (code, json.loads(out), err) == (1, {"status": "unsat"}, "")
    code, out, err = run(capsys, "solve", "--poset", "antichain:2",
                         "--k", "2", "--d", "2", "--format", "json",
                         "-o", str(out_path))
    assert code == 0 and json.loads(out)["status"] == "sat"
    assert (list(map(list, parse_orders_text(out_path.read_text())))
            == json.loads(out)["orders"])


def test_solve_offline_model(capsys, tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("s UNSATISFIABLE\n")
    code, out, err = run(capsys, "solve", "--poset", "chain:2",
                         "--k", "1", "--d", "1", "--model", str(model))
    assert code == 1
    model.write_text("garbage\n")
    code, out, err = run(capsys, "solve", "--poset", "chain:2",
                         "--k", "1", "--d", "1", "--model", str(model))
    assert code == 3 and err.startswith("ERROR:environment:")


def test_solve_offline_sat_model(capsys, tmp_path):
    from ldimkit import BooleanLattice, decode_realizer, emit_orders_text
    from ldimkit.cdcl import Solver
    from ldimkit.sat import encode

    P = BooleanLattice(2)
    formula, vm = encode(P, 2, 2, stream=True)
    solver = Solver(vm.variable_count)
    solver.load_trusted(formula.clauses)
    assert solver.solve()
    true_vars = solver.model
    model = tmp_path / "model.txt"
    args = ("solve", "--poset", "boolean:2", "--k", "2", "--model", str(model))

    def write_model(variables):
        model.write_text("s SATISFIABLE\nv "
                         + " ".join(map(str, sorted(variables))) + " 0\n")

    write_model(true_vars)
    code, out, err = run(capsys, *args, "--d", "2")
    assert code == 0
    assert out == emit_orders_text(decode_realizer(true_vars, vm, P))
    assert err == "status: sat\nfrequency: 2\nsize: 2\n"
    # a saved model at fault is an input fault, not an internal one
    code, out, err = run(capsys, *args, "--d", "1")
    assert code == 2
    assert err == "ERROR:input: decoded family has frequency 2 > d=1\n"
    # without its usage variables the model decodes to an empty family
    write_model(v for v in true_vars if v <= vm.pair_block)
    code, out, err = run(capsys, *args, "--d", "2")
    assert (code, out) == (2, "")
    assert err == "ERROR:input: decoded family fails verification\n"
    # without its before-variables the used elements are in no order
    write_model(v for v in true_vars if v > vm.pair_block)
    code, out, err = run(capsys, *args, "--d", "2")
    assert (code, out) == (2, "")
    assert err == ("ERROR:input: order 1: before-relation on used elements "
                   "is not a total order\n")


def test_solve_model_refuses_d_below_one(capsys, tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("s SATISFIABLE\nv 1 -2 3 4 0\n")
    code, out, err = run(capsys, "solve", "--poset", "chain:2",
                         "--k", "1", "--d", "0", "--model", str(model))
    assert (code, out, err) == (2, "", "ERROR:usage: need d >= 1, got 0\n")
    code, out, err = run(capsys, "solve", "--poset", "chain:2",
                         "--k", "1", "--d", "1", "--model", str(model))
    assert code == 0 and "frequency: 1" in err


def test_solve_model_with_non_integer_literal(capsys, tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("s SATISFIABLE\nv 1 x 0\n")
    code, out, err = run(capsys, "solve", "--poset", "chain:2",
                         "--k", "1", "--d", "1", "--model", str(model))
    assert code == 3 and out == ""
    assert err == "ERROR:environment: model value 'x' is not an integer literal\n"


def test_solver_answering_unknown(capsys, tmp_path):
    # an undecided solver is an environment fault, never an unsat answer
    unknown = f"{shlex.quote(sys.executable)} -c 'print(\"s UNKNOWN\")'"
    model = tmp_path / "model.txt"
    model.write_text("s UNKNOWN\n")
    for argv in (("solve", "--k", "1", "--d", "1", "--solver", unknown),
                 ("solve", "--k", "1", "--d", "1", "--model", str(model)),
                 ("ldim", "--solver", unknown)):
        code, out, err = run(capsys, *argv, "--poset", "chain:2")
        assert (code, out, err) == (3, "", (
            "ERROR:environment: solver answered neither sat nor unsat: "
            "'s UNKNOWN'\n")), argv


def test_solver_environment_error(capsys):
    code, out, err = run(capsys, "solve", "--poset", "chain:2",
                         "--k", "1", "--d", "1",
                         "--solver", "/nonexistent/solver")
    assert code == 3
    assert err.startswith("ERROR:environment:")


def test_ldim(capsys, tmp_path):
    code, out, err = run(capsys, "ldim", "--poset", "chain:3")
    assert code == 0 and out.strip() == "1"
    witness = tmp_path / "w.orders"
    code, out, err = run(capsys, "ldim", "--poset", "antichain:2",
                         "-o", str(witness))
    assert code == 0 and out.strip() == "2"
    assert parse_orders_text(witness.read_text())


def test_ldim_d_max_below_answer(capsys):
    code, out, err = run(capsys, "ldim", "--poset", "boolean:3",
                         "--d-max", "2")
    assert (code, out) == (1, "")
    assert err == ("ERROR:bound: no local realizer of frequency <= 2 found "
                   "for boolean:3\n")


def test_analyze_multiset_bound(capsys):
    code, out, err = run(capsys, "analyze", "multiset-bound",
                         "--n", "2", "--m", "25")
    assert code == 0
    payload = json.loads(out)
    assert payload["certifying"] is True
    assert payload["bound"] == pytest.approx(1.00715700409, abs=1e-9)
    code, out, err = run(capsys, "analyze", "multiset-bound", "--n", "2")
    assert code == 2 and err.startswith("ERROR:usage:")


def test_analyze_min_m(capsys):
    code, out, err = run(capsys, "analyze", "min-m", "--n", "2")
    assert code == 0
    assert json.loads(out)["m"] == 25


@pytest.mark.parametrize("n", ["700", "20000"])
def test_analyze_min_m_refuses_unprintable_m(capsys, n):
    # m for n = 700 has about 4320 digits, past the default 4300 that an
    # int prints with; n = 20000 would bisect over about 600,000 bits
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", "min-m", "--n", n)
    assert time.perf_counter() - start < 10
    assert code == 2 and out == ""
    assert err.startswith("ERROR:usage: min-m for n=")
    assert "Traceback" not in err


def test_analyze_turan(capsys):
    code, out, err = run(capsys, "analyze", "turan", "--n", "10",
                         "--size", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == pytest.approx(10 / 6)
    assert payload["ell_ceiling"] == 3


def test_analyze_signature(capsys, tmp_path):
    path = tmp_path / "fam.orders"
    path.write_text("1 2 3\n2 1 3\n1\n2\n")
    code, out, err = run(capsys, "analyze", "signature", "--n", "2",
                         "--m", "2", "--orders", str(path))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_analyze_signature_of_a_non_realizer_is_input_error(capsys,
                                                           tmp_path):
    path = tmp_path / "fam.orders"
    path.write_text("3\n")
    code, out, err = run(capsys, "analyze", "signature", "--n", "2",
                         "--m", "2", "--orders", str(path))
    assert (code, out) == (2, "")
    assert err == "ERROR:input: family is not a valid local realizer\n"


def test_tables(capsys, tmp_path):
    code, out, err = run(capsys, "tables", "b4")
    assert code == 0
    assert out == fixture_text("b4")
    assert out.splitlines()[0] == "0 8 1 9 2 3 11 4 6 7 12 14 13 15"
    path = tmp_path / "b7.txt"
    code, out, err = run(capsys, "tables", "b7", "-o", str(path))
    assert code == 0
    assert path.read_text(encoding="utf-8") == fixture_text("b7")
    code, out, err = run(capsys, "tables", "b9")
    assert code == 2


def test_round_trip_build_then_verify(capsys, tmp_path):
    path = tmp_path / "s5.orders"
    code, out, err = run(capsys, "build", "--poset", "singleton:5",
                         "-o", str(path))
    assert code == 0
    code, out, err = run(capsys, "verify", "--poset", "singleton:5",
                         "--orders", str(path))
    assert code == 0 and "accepted: true" in out


def test_console_script_entry():
    import ldimkit.cli as cli
    assert callable(cli.main)
    assert cli.main(["--help"]) == 0


def _imports(*argv):
    """A fresh interpreter run with ``argv``, and the modules it imported."""
    import subprocess
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True)
    return proc, {line.rsplit("|", 1)[-1].strip()
                  for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}


def test_subcommands_import_what_they_use():
    # `tables` loads neither the SAT layer nor the bounds
    proc, imported = _imports("-m", "ldimkit", "tables", "b4")
    assert proc.returncode == 0 and proc.stdout == fixture_text("b4")
    assert {"ldimkit", "ldimkit.cli", "ldimkit.fixtures"} <= imported
    assert not imported & {"ldimkit.sat", "ldimkit.dimacs", "ldimkit.cdcl",
                           "ldimkit.bounds"}
    # `ldim` solves in process: no DIMACS and model I/O, no bounds, no
    # singleton construction, and no process machinery beyond what numpy
    # and argparse load
    proc, imported = _imports("-m", "ldimkit", "ldim", "--poset", "antichain:2")
    assert proc.returncode == 0 and proc.stdout == "2\n"
    assert {"ldimkit.sat", "ldimkit.cdcl"} <= imported
    assert not imported & {"ldimkit.dimacs", "ldimkit.bounds",
                           "ldimkit.singletons"}
    _, base = _imports("-c", "import numpy, argparse")
    assert not (imported - base) & {"subprocess", "shlex", "signal",
                                    "selectors"}
    # `encode` writes DIMACS and solves nothing
    proc, imported = _imports("-m", "ldimkit", "encode", "--poset", "chain:2",
                              "--k", "1", "--d", "1")
    assert proc.returncode == 0 and proc.stdout.startswith("p cnf ")
    assert "ldimkit.dimacs" in imported and "ldimkit.cdcl" not in imported


def test_package_names_resolve_on_access():
    import ldimkit
    namespace = {}
    exec("from ldimkit import *", namespace)
    assert set(ldimkit.__all__) <= set(namespace)
    from ldimkit import sat
    assert namespace["ldim_exact"] is sat.ldim_exact
    with pytest.raises(AttributeError, match="no_such_name"):
        ldimkit.no_such_name

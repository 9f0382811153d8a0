import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc

import pytest

from ldimkit import build_poset, fixture_text, parse_orders_text
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


def test_row_refusal_names_the_rows(capsys, tmp_path):
    # verify packs the order rows from the predicate and never builds the
    # comparability matrix, so the refusal names the rows
    path = tmp_path / "one.orders"
    path.write_text("0 1\n")
    code, out, err = run(capsys, "verify", "--poset", "multiset:10:3",
                         "--orders", str(path))
    assert (code, out) == (2, "")
    assert err == ("ERROR:usage: multiset:10:3: order rows packed from the "
                   "order predicate would need 3486784401 cells\n")


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


def test_solve_model_refuses_a_solver(capsys, tmp_path):
    # refused before the model is read: a missing file is not reached
    model = tmp_path / "model.txt"
    model.write_text("s UNSATISFIABLE\n")
    for path in (model, tmp_path / "missing.txt"):
        code, out, err = run(capsys, "solve", "--poset", "boolean:2", "--k",
                             "2", "--d", "2", "--model", str(path),
                             "--solver", "nonexistent")
        assert (code, out) == (2, "")
        assert err == ("ERROR:usage: --model decodes a saved output; "
                       "drop --solver\n")


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


@pytest.mark.parametrize("argv", [("verify", "--poset", "boolean:2"),
                                  ("analyze", "signature", "--n", "2",
                                   "--m", "2")])
def test_orders_file_that_is_not_utf8(capsys, tmp_path, argv):
    # malformed input, not a rejection: the message names the byte
    orders = tmp_path / "bad.orders"
    orders.write_bytes(b"0 1\xff\n")
    assert run(capsys, *argv, "--orders", str(orders)) == (2, "", (
        f"ERROR:usage: {orders}: 'utf-8' codec can't decode byte 0xff "
        "in position 3: invalid start byte\n"))


def _chain2_model():
    """The in-process solver's model of chain:2 at k = 1, d = 1."""
    from ldimkit.cdcl import Solver
    from ldimkit.sat import encode
    formula, vm = encode(build_poset("chain:2"), 1, 1, stream=True)
    solver = Solver(vm.variable_count)
    solver.load_trusted(formula.clauses)
    assert solver.solve()
    return " ".join(map(str, solver.model)).encode()


@pytest.mark.parametrize("live", [False, True])
def test_solver_output_that_is_not_utf8(capsys, tmp_path, live):
    # unusable solver output, saved or live, as a bad 'v' token is: a
    # comment in Latin-1 before a valid model names the byte
    argv = ("solve", "--poset", "chain:2", "--k", "1", "--d", "1")
    for comment, code, line in (
            (b"c resolu", 0, "status: sat"),
            (b"c r\xe9solu", 3,
             "ERROR:environment: solver output is not UTF-8: byte 0xe9")):
        output = (comment + b"\ns SATISFIABLE\nv " + _chain2_model()
                  + b" 0\n")
        if live:
            script = f"import sys; sys.stdout.buffer.write({output!r})"
            got = run(capsys, *argv, "--solver", " ".join(
                map(shlex.quote, (sys.executable, "-c", script))))
        else:
            model = tmp_path / "model.txt"
            model.write_bytes(output)
            got = run(capsys, *argv, "--model", str(model))
        assert (got[0], got[2].splitlines()[0]) == (code, line), comment


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


def test_console_script_entry(monkeypatch, tmp_path):
    # the `ldimkit` script's target sets the one-thread default when it is
    # imported: here it sets it in a copy of this process's environment
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.delitem(sys.modules, "ldimkit.__main__", raising=False)
    import ldimkit.__main__ as entry
    assert entry.main(["--help"]) == 0
    assert "OPENBLAS_NUM_THREADS" in os.environ
    # the script calls run(), which exits with the code that main returns
    bad = tmp_path / "bad.orders"
    bad.write_text("1 0\n0 1\n")
    for argv, code in ((["--help"], 0), (["tables", "b9"], 2),
                       (["verify", "--poset", "chain:2", "--orders", str(bad)],
                        1)):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys\n"
             f"sys.argv = ['ldimkit', *{argv!r}]\n"
             "from ldimkit.__main__ import run\nrun()\n"],
            env=_unbuffered_off(), capture_output=True, text=True)
        assert entry.main(argv) == proc.returncode == code, proc.stderr
    # cli.main itself leaves the environment alone
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", "import os, ldimkit.cli; "
         f"ldimkit.cli.main(['tables', 'b4', '-o', {str(tmp_path / 'b4')!r}]); "
         "print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        env=env, capture_output=True, text=True)
    assert proc.stdout == "None\n", proc.stderr


def _unbuffered_off() -> dict:
    """This process's environment without PYTHONUNBUFFERED, under which a
    child's stdout is written through and a missing flush loses nothing."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def test_entry_point_matches_cli_main(capsys, monkeypatch, tmp_path):
    # `python -m ldimkit` ends without interpreter teardown: its stdout,
    # stderr, exit code and files equal those of cli.main in process, also
    # where argparse ends the command (--help, usage errors)
    monkeypatch.setenv("COLUMNS", "80")  # the width --help is wrapped to
    rejected = tmp_path / "rejected.orders"
    lines = fixture_text("b4").splitlines()
    lines[0] = " ".join(reversed(lines[0].split()))
    rejected.write_text("\n".join(lines) + "\n")
    commands = [
        (["build", "--poset", "boolean:12"], 0),
        (["verify", "--poset", "boolean:4", "--orders", str(rejected),
          "--format", "json"], 1),
        (["encode", "--poset", "chain:3", "--k", "2", "--d", "1", "-o", "F",
          "--map", "M"], 0),
        (["ldim", "--poset", "boolean:2", "-o", "F"], 0),
        (["verify", "--poset", "boolean:2"], 2),
        (["solve", "--poset", "chain:2", "--k", "1", "--d", "1",
          "--model", str(tmp_path / "missing.model")], 3),
        (["--help"], 0),
        (["--no-such-option"], 2),
    ]
    for i, (argv, code) in enumerate(commands):
        child, here = tmp_path / f"child{i}", tmp_path / f"here{i}"
        child.mkdir()
        here.mkdir()
        proc = subprocess.run([sys.executable, "-m", "ldimkit", *argv],
                              cwd=child, env=_unbuffered_off(),
                              capture_output=True)
        monkeypatch.chdir(here)
        assert run(capsys, *argv) == (code, proc.stdout.decode(),
                                      proc.stderr.decode())
        assert proc.returncode == code
        files = sorted(path.name for path in here.iterdir())
        assert sorted(path.name for path in child.iterdir()) == files
        for name in files:
            assert (child / name).read_bytes() == (here / name).read_bytes()


def test_entry_point_keeps_teardown_under_a_profiler(tmp_path):
    # cProfile prints its report at interpreter exit
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "ldimkit", "tables", "b4",
         "-o", str(tmp_path / "b4")],
        env=_unbuffered_off(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "function calls" in proc.stdout
    assert (tmp_path / "b4").read_text() == fixture_text("b4")


def _lost_write(argv, stdout, unbuffered: bool, **options) -> tuple:
    env = _unbuffered_off()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.argv[1:] = {argv!r}; "
         "from ldimkit.__main__ import run; run()"],
        stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, **options)
    return proc.returncode, proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_entry_point_reports_a_lost_write():
    # cli.main flushes stdout itself: a write lost on a full disk or a
    # closed pipe is ERROR:environment and exit 3, whether or not stdout
    # is buffered, and no teardown retries it
    read, closed_pipe = os.pipe()
    os.close(read)
    try:
        with open("/dev/full", "wb") as full:
            for argv, stdout, errno in (
                    (["ldim", "--poset", "chain:1"], full, 28),
                    (["tables", "b4"], closed_pipe, 32)):
                buffered, unbuffered = (_lost_write(argv, stdout, flag)
                                        for flag in (False, True))
                assert buffered == unbuffered
                code, err = buffered
                assert code == 3
                assert err.startswith(f"ERROR:environment: [Errno {errno}]")
                assert "Exception ignored" not in err
    finally:
        os.close(closed_pipe)


def test_closed_stdout_is_an_environment_error(tmp_path):
    # with descriptor 1 closed (`>&-`) sys.stdout is None: a command that
    # writes there fails as a lost write does, one that writes nothing to
    # stdout succeeds; --help, whose lost write argparse ignores, fails
    out = tmp_path / "b4"
    for argv, code in ((["tables", "b4"], 3), (["--help"], 3),
                       (["ldim", "--poset", "chain:1"], 3),
                       (["build", "--poset", "boolean:2", "-o", str(out)], 3),
                       (["tables", "b4", "-o", str(out)], 0)):
        for unbuffered in (False, True):
            assert _lost_write(argv, None, unbuffered,
                               preexec_fn=lambda: os.close(1)) == (
                code, "" if code == 0
                else "ERROR:environment: [Errno 9] stdout is closed\n")
    assert out.read_text() == fixture_text("b4")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_satshim_reports_a_lost_write(tmp_path):
    # `python -m ldimkit.satshim` flushes stdout itself: a write lost on a
    # full disk, a closed pipe or a closed descriptor 1 is one satshim:
    # line and exit 3, buffered or not, and no teardown retries it
    cnf = tmp_path / "tiny.cnf"
    cnf.write_text("p cnf 2 1\n1 -2 0\n")
    read, closed_pipe = os.pipe()
    os.close(read)
    try:
        with open("/dev/full", "wb") as full:
            for stdout, options, errno in (
                    (full, {}, 28), (closed_pipe, {}, 32),
                    (None, {"preexec_fn": lambda: os.close(1)}, 9)):
                for unbuffered in (False, True):
                    env = _unbuffered_off()
                    if unbuffered:
                        env["PYTHONUNBUFFERED"] = "1"
                    proc = subprocess.run(
                        [sys.executable, "-m", "ldimkit.satshim", str(cnf)],
                        stdout=stdout, stderr=subprocess.PIPE, env=env,
                        text=True, **options)
                    assert (proc.returncode, proc.stderr) == (
                        3, f"satshim: stdout: [Errno {errno}] "
                        f"{os.strerror(errno)}\n")
    finally:
        os.close(closed_pipe)


def _imports(*argv):
    """A fresh interpreter run with ``argv``, and the modules it imported."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True)
    return proc, {line.rsplit("|", 1)[-1].strip()
                  for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}


def test_subcommands_import_what_they_use(tmp_path):
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
                                    "selectors", "json"}
    # `encode` writes DIMACS and solves nothing: no verifier, no process
    # machinery, no json
    proc, imported = _imports("-m", "ldimkit", "encode", "--poset", "chain:2",
                              "--k", "1", "--d", "1")
    assert proc.returncode == 0 and proc.stdout.startswith("p cnf ")
    assert "ldimkit.dimacs" in imported and "ldimkit.cdcl" not in imported
    assert not (imported - base) & {"ldimkit.realizers", "json",
                                    "subprocess", "shlex"}
    # `solve --model` in text format reads a file and starts no process
    model = tmp_path / "chain2.model"
    model.write_text("s SATISFIABLE\nv 1 -2 3 4 0\n")
    proc, imported = _imports("-m", "ldimkit", "solve", "--poset", "chain:2",
                              "--k", "1", "--d", "1", "--model", str(model))
    assert proc.returncode == 0 and proc.stdout == "0 1\n"
    assert {"ldimkit.dimacs", "ldimkit.realizers"} <= imported
    assert not (imported - base) & {"subprocess", "shlex", "json"}
    # the `analyze` formulas load neither numpy nor the posets and verifier
    for argv in (("multiset-bound", "--n", "3", "--m", "2"),
                 ("min-m", "--n", "3"), ("turan", "--n", "5", "--size", "9")):
        proc, imported = _imports("-m", "ldimkit", "analyze", *argv)
        assert proc.returncode == 0, proc.stderr
        assert "ldimkit.bounds" in imported
        assert not imported & {"numpy", "ldimkit.posets", "ldimkit.realizers"}


@pytest.mark.parametrize("argv, text", [
    (["verify", "--poset", "boolean:2"], "0 1 2 3\n0 2 1 3\n"),
    (["analyze", "signature", "--n", "2", "--m", "2"],
     "1 2 3\n2 1 3\n1\n2\n"),
], ids=["verify", "analyze-signature"])
def test_commands_start_their_modules_before_numpy(tmp_path, argv, text):
    # where no bytecode is cached, a module compiles when its import
    # starts; verify and analyze signature start orders_io, realizers and
    # posets before numpy.  sys.modules cannot tell: importlib moves a
    # module to its end once the module has run, so a finder that finds
    # nothing logs the starts
    orders = tmp_path / "family.orders"
    orders.write_text(text)
    watched = ["ldimkit.orders_io", "ldimkit.realizers", "ldimkit.posets",
               "numpy"]
    proc = subprocess.run([sys.executable, "-c", (
        "import sys\n"
        "started = []\n"
        "class Log:\n"
        "    def find_spec(name, path=None, target=None):\n"
        "        started.append(name)\n"
        "sys.meta_path.insert(0, Log)\n"
        "from ldimkit.cli import main\n"
        f"code = main({argv + ['--orders', str(orders)]!r})\n"
        f"print(code, [name for name in started if name in {watched!r}])")],
        capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == f"0 {watched!r}", proc.stderr


def test_package_names_resolve_on_access():
    import ldimkit
    namespace = {}
    exec("from ldimkit import *", namespace)
    assert set(ldimkit.__all__) <= set(namespace)
    from ldimkit import sat
    assert namespace["ldim_certificate"] is sat.ldim_certificate
    with pytest.raises(AttributeError, match="no_such_name"):
        ldimkit.no_such_name


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="threads are counted in /proc/self/task")
def test_commands_start_no_openblas_worker_unless_told(tmp_path):
    # ldimkit makes no BLAS call, so both entry points load numpy with one
    # OpenBLAS thread unless the user set OPENBLAS_NUM_THREADS.  Each
    # child's env is built here, without any value this process holds.
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas["name"] or (os.cpu_count() or 1) < 2:
        pytest.skip("numpy is not linked with a multi-threaded OpenBLAS")
    cnf = tmp_path / "tiny.cnf"
    cnf.write_text("p cnf 2 1\n1 -2 0\n")
    orders = str(tmp_path / "b4.orders")
    # `python -m ldimkit.satshim` sets the default; importing it does not
    shim = ("import runpy\n"
            f"sys.argv = ['satshim', {str(cnf)!r}]\n"
            "try:\n"
            "    runpy.run_module('ldimkit.satshim', run_name='__main__')\n"
            "except SystemExit:\n"
            "    pass\n")
    calls = [f"from ldimkit.__main__ import main\nmain(['tables', 'b4', "
             f"'-o', {orders!r}])\n", shim]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    for call in calls:
        for extra, threads in (({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)):
            proc = subprocess.run(
                [sys.executable, "-c", f"import os, sys\n{call}"
                 "print(len(os.listdir('/proc/self/task')))"],
                env={**env, **extra}, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[-1] == str(threads), (call, extra)
    # a library user keeps numpy's threads
    proc = subprocess.run(
        [sys.executable, "-c", "import os, ldimkit, ldimkit.satshim; "
         "print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        env=env, capture_output=True, text=True)
    assert proc.stdout == "None\n", proc.stderr

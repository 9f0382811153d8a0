"""Tests of the benchmark's own checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

The independent family checker is cross-checked against ``tests/oracle.py``
on small posets, invalid families included; the fault planter, the report
check, the clause evaluator, the model writer and the span recorder are
each run against the program.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent), str(HERE.parent / "src")]

import cnf  # noqa: E402
import faults  # noqa: E402
from checker import RefPoset, check_family  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import boolean_frequency, singleton_bounds, standard_members  # noqa: E402

from ldimkit import (VarMap, b4_family, b7_family, build_bn_realizer,  # noqa: E402
                     build_poset, build_singleton_realizer, decode_realizer,
                     encode, parse_model_text, verify_local_realizer,
                     write_dimacs)
from tests import oracle  # noqa: E402

SMALL = ["chain:1", "chain:3", "antichain:3", "boolean:2", "boolean:3",
         "singleton:3", "multiset:2:2", "multiset:2:3",
         "multiset-singleton:2:3"]


def random_family(P, rng):
    ids = list(P.element_ids())
    members = []
    for _ in range(int(rng.integers(0, 6))):
        k = int(rng.integers(1, len(ids) + 1))
        members.append(tuple(int(a) for a in rng.permutation(ids)[:k]))
    if members and rng.random() < 0.2:
        m = list(members[0])
        m.insert(int(rng.integers(len(m) + 1)), m[0])
        members[0] = tuple(m)
    return members


@pytest.mark.parametrize("spec", SMALL)
def test_reference_order_matches_program(spec):
    P, R = build_poset(spec), RefPoset(spec)
    ids = np.asarray(list(P.element_ids()))
    assert (R.ids == ids).all()
    got = R.leq(ids[:, None], ids[None, :])
    want = np.array([[P.leq(int(a), int(b)) for b in ids] for a in ids])
    assert (got == want).all()


@pytest.mark.parametrize("spec", SMALL)
def test_checker_agrees_with_oracle(spec):
    P, R = build_poset(spec), RefPoset(spec)
    rng = np.random.default_rng(7)
    families = [random_family(P, rng) for _ in range(150)]
    families.append([tuple(P.element_ids())])
    if spec.startswith("boolean"):
        n = int(spec.split(":")[1])
        valid = standard_members(n)
        families += [valid, valid[1:], [valid[0][::-1]] + valid[1:]]
    for family in families:
        result = check_family(R, family)
        assert (result.accepted, result.frequency, result.size) == \
            oracle.check_family(P, family), family


def test_checker_on_certificates_and_builds():
    for spec, family, freq, size in [
            ("boolean:4", b4_family(), 3, 4), ("boolean:7", b7_family(), 5, 7),
            ("boolean:9", build_bn_realizer(9), boolean_frequency(9), None)]:
        result = check_family(RefPoset(spec), family)
        assert result.accepted and result.frequency == freq
        assert size is None or result.size == size
    bound, size = singleton_bounds(9)
    result = check_family(RefPoset("singleton:9"), build_singleton_realizer(9))
    assert result.accepted and result.frequency <= bound and result.size == size


def test_checker_samples_large_posets_with_seed():
    R = RefPoset("boolean:11")
    family = [list(m) for m in build_bn_realizer(11)]
    assert check_family(R, family, seed=3).accepted
    family[0] = family[0][::-1]
    result = check_family(R, family, seed=3)
    assert not result.accepted and result.problems["reversed"] > 0


@pytest.mark.parametrize("spec,family", [("boolean:8", build_bn_realizer(8)),
                                         ("singleton:8", build_singleton_realizer(8))])
def test_planted_faults_are_reported(spec, family):
    P, R = build_poset(spec), RefPoset(spec)
    for seed in range(3):
        members, planted = faults.plant_faults(R, family, np.random.default_rng(seed))
        assert {f["fault"] for f in planted} == {
            "member-dropped", "pair-swapped", "element-repeated"}
        assert len(members) == len(family) - 1
        report = verify_local_realizer(P, members).to_json_dict()
        assert faults.check_report(R, members, report, planted) == []
        assert not check_family(R, members).accepted

        dropped = dict(report, violations=[
            v for v in report["violations"] if v["kind"] != faults.DUPLICATE])
        assert any("missing" in e for e in
                   faults.check_report(R, members, dropped, planted))
        shuffled = dict(report, violations=report["violations"][::-1])
        assert "violations not in canonical order" in \
            faults.check_report(R, members, shuffled, planted)
        forged = dict(report, violations=report["violations"] + [
            {"kind": "pair-never-co-occurs", "a": R.lo, "b": R.lo + 1, "ple": None}])
        assert faults.check_report(R, members, forged)


def test_shuffled_family_fills_order_caps():
    P, R = build_poset("boolean:8"), RefPoset("boolean:8")
    members = faults.shuffle_members(build_bn_realizer(8), np.random.default_rng(0))
    report = verify_local_realizer(P, members).to_json_dict()
    assert faults.check_report(
        R, members, report, full_kinds=(faults.ORDER, faults.REVERSED)) == []
    assert faults.check_report(R, members, dict(report, accepted=True))


@pytest.mark.parametrize("spec,k,d,family,satisfies", [
    ("boolean:4", 4, 3, b4_family(), True),
    ("boolean:4", 6, 3, b4_family(), True),
    ("boolean:4", 4, 2, b4_family(), False),
    ("boolean:3", 3, 3, standard_members(3), True),
    ("boolean:3", 3, 2, standard_members(3), False),
])
def test_family_assignment_against_formula(tmp_path, spec, k, d, family, satisfies):
    P = build_poset(spec)
    formula, vm = encode(P, k, d)
    write_dimacs(formula, vm, tmp_path / "f.cnf")
    parsed = cnf.read_dimacs(tmp_path / "f.cnf")
    assert (parsed.variables, parsed.clauses) == (formula.variable_count,
                                                  formula.clause_count)
    values = cnf.unit_propagate(parsed, cnf.family_values(vm, family, parsed.variables))
    assert (cnf.unsatisfied(parsed, values) == 0) == satisfies


def test_reversed_member_breaks_assignment(tmp_path):
    P = build_poset("boolean:3")
    formula, vm = encode(P, 3, 3)
    write_dimacs(formula, vm, tmp_path / "f.cnf")
    parsed = cnf.read_dimacs(tmp_path / "f.cnf")
    members = standard_members(3)
    members[0] = members[0][::-1]
    values = cnf.family_values(vm, members, parsed.variables)
    assert cnf.unsatisfied(parsed, values) > 0


def test_unit_propagation_fills_auxiliary_variables(tmp_path):
    # a sequential counter over the z variables of element 0 (at most one
    # order uses it), with one auxiliary variable per order
    P = build_poset("chain:2")
    formula, vm = encode(P, 3, 3)
    z = [vm.z(0, i) for i in (1, 2, 3)]
    s = [formula.variable_count + i for i in (1, 2, 3)]
    extra = [[-z[0], s[0]], [-s[0], s[1]], [-z[1], s[1]], [-z[1], -s[0]],
             [-s[1], s[2]], [-z[2], s[2]], [-z[2], -s[1]]]
    formula.clauses += extra
    formula.variable_count += 3
    write_dimacs(formula, None, tmp_path / "f.cnf")
    parsed = cnf.read_dimacs(tmp_path / "f.cnf")
    start = cnf.family_values(vm, [(0, 1)], parsed.variables)
    assert (start[s] == cnf.UNSET).all()
    values = cnf.unit_propagate(parsed, start)
    assert list(values[s]) == [1, 1, 1]
    assert cnf.unsatisfied(parsed, values) == 0
    two = cnf.unit_propagate(parsed, cnf.family_values(vm, [(0, 1), (0, 1)],
                                                       parsed.variables))
    assert cnf.unsatisfied(parsed, two) > 0


@pytest.mark.parametrize("text,message", [
    ("p cnf 2 2\n1 -2 0\n", "declares 2"),
    ("p cnf 2 1\n1 3 0\n", "literal 3"),
    ("p cnf 2 1\n1 2\n", "not terminated"),
    ("p cnf 2 2\n1 0\n0\n", "empty clause"),
    ("q cnf 2 1\n1 0\n", "header"),
])
def test_read_dimacs_rejects_bad_files(tmp_path, text, message):
    (tmp_path / "bad.cnf").write_text(text)
    with pytest.raises(ValueError, match=message):
        cnf.read_dimacs(tmp_path / "bad.cnf")


def test_model_file_decodes_to_source_family(tmp_path):
    P = build_poset("boolean:7")
    vm = VarMap(P, 7)
    cnf.write_model(tmp_path / "m", cnf.family_values(vm, b7_family(), vm.variable_count))
    result = parse_model_text((tmp_path / "m").read_text())
    assert result.status == "sat"
    assert decode_realizer(result.model, vm, P) == b7_family()


def test_tracer_records_nested_spans_and_restores():
    import types
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    original = module.inner
    tracer = Tracer()
    with tracer.wrapping([(module, "inner", "m.inner", lambda a, r: {"arg": a[0]}),
                          (module, "outer", "m.outer", None)]):
        with tracer.span("top"):
            assert module.outer(3) == 8
    assert module.inner is original
    names = [s.name for s in tracer.spans]
    assert names == ["top", "m.outer", "m.inner"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1]
    assert tracer.spans[2].attrs == {"arg": 3}
    own = tracer.self_times()
    assert abs(sum(own) - tracer.duration(0)) < 1e-9


def test_tracer_wraps_cached_property_computation():
    from ldimkit import BooleanLattice, Poset
    original = vars(Poset)["_leq_matrix"]
    tracer = Tracer()
    with tracer.wrapping([(Poset, "_leq_matrix", "leq",
                           lambda a, r: {"bytes": r.nbytes})]):
        P = BooleanLattice(3)
        P.leq_matrix()
        P.leq_matrix()
    assert vars(Poset)["_leq_matrix"] is original
    assert [(s.name, s.attrs) for s in tracer.spans] == [("leq", {"bytes": 64})]


def test_verify_report_is_checked_whatever_the_exit_code():
    import json

    import run
    from workloads import Command
    P = build_poset("boolean:3")
    members = [tuple(m) for m in build_bn_realizer(3)][:-1]
    ref = RefPoset("boolean:3")
    true_report = verify_local_realizer(P, members).to_json()
    lying_report = json.dumps({"accepted": True, "frequency": 3, "size": 2,
                               "violations": []})
    cmd = Command("verify dropped", "verify", [], 1, [],
                  lambda out: faults.check_report(ref, members, json.loads(out)),
                  None)

    def problems(rc, stdout):
        runner = run.Runner.__new__(run.Runner)
        runner.problems = []
        runner.spawn = lambda argv: (0.1, 10.0, rc, stdout, "")
        return runner.run(cmd).ok, runner.problems

    assert problems(1, true_report) == (True, [])
    ok, found = problems(0, true_report)
    assert not ok and any("exit 0 with accepted=False" in p for p in found)
    ok, found = problems(0, lying_report)
    assert not ok and any("faulty family accepted" in p for p in found)
    assert problems(3, "") == (False, [])

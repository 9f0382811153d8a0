"""The four workloads: their inputs, the CLI commands they run, the checks
on each command's output, and an in-process replay of each command.

A replay makes the same library calls as the CLI command it stands for
(see ``ldimkit/cli.py``), through module attributes, so that a traced run
can wrap those attributes and see the calls that library code makes too.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import cnf
import faults
from checker import RefPoset, check_family

BUILD_POSETS = ("boolean:12", "singleton:13")
ENCODE_INSTANCES = (  # poset, k, d, family, whether the family must satisfy
    ("boolean:3", 24, 3, "standard", True),
    ("boolean:4", 16, 2, "b4", False),
)
DECODE_INSTANCES = (("boolean:7", 7, 5, "b7"), ("boolean:8", 8, 6, "b8"))
LDIM_POSETS = {  # poset -> its ldim, None where no value is pinned
    "chain:4": 1, "antichain:3": 2, "boolean:2": 2, "boolean:3": 3,
    "multiset-singleton:2:3": None,
}


@dataclass
class Command:
    label: str
    kind: str  # build | verify | encode | decode | ldim
    argv: list[str]
    expect_rc: int
    outputs: list[str]
    check: Callable[[str], list[str]]  # stdout -> problems
    replay: Callable[["Replay"], None]


class Replay:
    """What one in-process replay of a command list needs and leaves."""

    def __init__(self, api, work: Path):
        self.api, self.work = api, work
        self.verified: list[tuple[str, object, object]] = []
        self.failures: list[str] = []
        self.json_out: dict[str, str] = {}

    def verify(self, P, spec: str, family):
        report = self.api.realizers.verify_local_realizer(P, family)
        self.verified.append((spec, family, report))
        return report

    def read_orders(self, name: str):
        text = (self.work / name).read_text(encoding="utf-8")
        return self.api.realizers.RealizerFamily(
            self.api.orders_io.parse_orders_text(text))

    def write_orders(self, name: str, family) -> None:
        text = self.api.orders_io.emit_orders_text(family)
        (self.work / name).write_text(text, encoding="utf-8")


def replay_name(name: str) -> str:
    return name + ".replay"


# ------------------------------------------------------------- helpers


def read_members(path: Path) -> list[tuple[int, ...]]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(int(t) for t in line.split()) for line in handle
                if line.strip()]


def summary(stdout: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in stdout.splitlines()
                if ": " in line)


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 22), b""):
                h.update(block)
    return h.hexdigest()


def standard_members(n: int) -> list[tuple[int, ...]]:
    """Order i puts every set without element i below every set with it,
    each part sorted by size then id: n linear extensions of boolean:n."""
    canon = sorted(range(1 << n), key=lambda a: (a.bit_count(), a))
    return [tuple([a for a in canon if not a >> i & 1]
                  + [a for a in canon if a >> i & 1]) for i in range(n)]


def boolean_frequency(n: int) -> int:
    """5a + 3b + c for n = 7a + 4b + c, b in {0, 1}, c in {0..3}."""
    a, rem = divmod(n, 7)
    b = 1 if rem >= 4 else 0
    return 5 * a + 3 * b + (rem - 4 * b)


def singleton_bounds(n: int) -> tuple[int, int]:
    """(frequency bound, size) of the block construction at its default
    width d = max(1, ceil(log2 n - log2 log2 n))."""
    d = max(1, math.ceil(math.log2(n) - math.log2(math.log2(n))))
    widths = [min(d, n - start) for start in range(0, n, d)]
    return (max(2 ** d + 1, -(-n // d) + 2),
            2 + sum(2 ** w - 1 for w in widths))


def expect_built(spec: str, result) -> list[str]:
    kind, n = spec.split(":")
    n = int(n)
    problems = [] if result.accepted else [
        f"{spec}: checker rejects the family ({result.problems})"]
    if kind == "boolean" and result.frequency != boolean_frequency(n):
        problems.append(f"{spec}: frequency {result.frequency}, "
                        f"expected {boolean_frequency(n)}")
    if kind == "singleton":
        bound, size = singleton_bounds(n)
        if result.frequency > bound or result.size != size:
            problems.append(f"{spec}: frequency {result.frequency} (bound "
                            f"{bound}), size {result.size} (expected {size})")
    return problems


def report_matches(report: dict, result) -> list[str]:
    got = (report["frequency"], report["size"])
    want = (result.frequency, result.size)
    return [] if got == want else [f"report gives frequency, size {got}, "
                                   f"checker gives {want}"]


# ------------------------------------------------------------ workloads


def build_verify(api, work: Path, seed: int) -> list[Command]:
    commands = []
    checked = {}  # build and verify read the same file: check it once

    def check_file(P, orders):
        key = (P.spec, digest(work / orders))
        if key not in checked:
            checked[key] = check_family(P, read_members(work / orders), seed)
        return checked[key]

    for spec in BUILD_POSETS:
        P = RefPoset(spec)
        orders = spec.replace(":", "") + ".orders"

        def check_build(stdout, spec=spec, P=P, orders=orders):
            result = check_file(P, orders)
            problems = expect_built(spec, result)
            stated = summary(stdout)
            if (int(stated.get("frequency", -1)), int(stated.get("size", -1))) \
                    != (result.frequency, result.size):
                problems.append(f"{spec}: build summary {stated} disagrees "
                                f"with the checker")
            return problems

        def check_verify(stdout, spec=spec, P=P, orders=orders):
            report = json.loads(stdout)
            result = check_file(P, orders)
            problems = expect_built(spec, result) + report_matches(report, result)
            if not report["accepted"] or report["violations"]:
                problems.append(f"{spec}: verify rejects the built family")
            return problems

        def replay_build(r, spec=spec, orders=orders):
            P = r.api.posets.build_poset(spec)
            if isinstance(P, r.api.posets.BooleanLattice):
                family = r.api.realizers.build_bn_realizer(P.n)
            else:
                family = r.api.singletons.build_singleton_plan(P.n, None).family()
            r.verify(P, spec, family)
            r.write_orders(replay_name(orders), family)

        commands.append(Command(
            f"build {spec}", "build", ["build", "--poset", spec, "-o", orders],
            0, [orders], check_build, replay_build))
        commands.append(Command(
            f"verify {spec}", "verify",
            ["verify", "--poset", spec, "--orders", orders, "--format", "json"],
            0, [orders], check_verify, replay_verify(spec, orders)))
    return commands


def replay_verify(spec: str, orders: str):
    def run(r):
        P = r.api.posets.build_poset(spec)
        report = r.verify(P, spec, r.read_orders(orders))
        r.json_out[orders] = report.to_json(indent=2) + "\n"
    return run


def verify_reject(api, work: Path, seed: int) -> list[Command]:
    rng = np.random.default_rng(seed)
    bases = {"boolean:12": api.realizers.build_bn_realizer(12),
             "singleton:13": api.singletons.build_singleton_realizer(13)}
    inputs = []
    for spec, family in bases.items():
        P = RefPoset(spec)
        problems = expect_built(spec, check_family(P, family, seed))
        if problems:
            raise RuntimeError(f"base family is not a realizer: {problems}")
        members, planted = faults.plant_faults(P, family, rng)
        inputs.append((spec, "planted", members, planted, ()))
    shuffled = faults.shuffle_members(bases["boolean:12"], rng)
    inputs.append(("boolean:12", "shuffled", shuffled, [],
                   (faults.ORDER, faults.REVERSED, faults.UNWITNESSED,
                    faults.ONE_SIDED)))

    commands = []
    for spec, how, members, planted, full_kinds in inputs:
        P = RefPoset(spec)
        orders = f"{spec.replace(':', '')}-{how}.orders"
        (work / orders).write_text(
            "".join(" ".join(map(str, m)) + "\n" for m in members))

        def check(stdout, P=P, members=members, planted=planted,
                  full_kinds=full_kinds):
            report = json.loads(stdout)
            result = check_family(P, members, seed)
            problems = faults.check_report(P, members, report, planted,
                                           full_kinds)
            if result.accepted:
                problems.append("the checker accepts the faulty family")
            return problems + report_matches(report, result)

        commands.append(Command(
            f"verify {spec} {how}", "verify",
            ["verify", "--poset", spec, "--orders", orders, "--format", "json"],
            1, [orders], check, replay_verify(spec, orders)))
    return commands


def sat_encode(api, work: Path, seed: int) -> list[Command]:
    families = {
        "standard": standard_members(3),
        "b4": read_members(work / "b4.orders"),
        "b7": [tuple(m) for m in api.fixtures.b7_family()],
        "b8": [tuple(m) for m in api.realizers.build_bn_realizer(8)],
    }
    for name, spec, freq, size in (("standard", "boolean:3", 3, 3),
                                   ("b4", "boolean:4", 3, 4),
                                   ("b7", "boolean:7", 5, 7),
                                   ("b8", "boolean:8", 6, 8)):
        result = check_family(RefPoset(spec), families[name], seed)
        if (result.accepted, result.frequency, result.size) != (True, freq, size):
            raise RuntimeError(f"{name} is not a frequency-{freq} realizer")

    commands = []
    for spec, k, d, name, must_satisfy in ENCODE_INSTANCES:
        out = f"{spec.replace(':', '')}-k{k}-d{d}.cnf"

        def check(stdout, spec=spec, k=k, name=name, out=out,
                  must_satisfy=must_satisfy):
            formula = cnf.read_dimacs(work / out)
            stated = summary(stdout)
            problems = []
            if (int(stated.get("variables", -1)), int(stated.get("clauses", -1))) \
                    != (formula.variables, formula.clauses):
                problems.append(f"{out}: summary {stated} disagrees with header")
            vm = api.sat.VarMap(api.posets.build_poset(spec), k)
            values = cnf.unit_propagate(formula, cnf.family_values(
                vm, families[name], formula.variables))
            broken = cnf.unsatisfied(formula, values)
            if must_satisfy and broken:
                problems.append(f"{out}: {name} leaves {broken} clauses false")
            if not must_satisfy and not broken:
                problems.append(f"{out}: {name} satisfies a frequency-{d} "
                                f"instance")
            return problems

        def replay(r, spec=spec, k=k, d=d, out=out):
            P = r.api.posets.build_poset(spec)
            formula, vm = r.api.sat.encode(P, k, d)
            r.api.sat.write_dimacs(formula, vm, r.work / replay_name(out))

        commands.append(Command(
            f"encode {spec} k={k} d={d}", "encode",
            ["encode", "--poset", spec, "--k", str(k), "--d", str(d), "-o", out],
            0, [out], check, replay))

    for spec, k, d, name in DECODE_INSTANCES:
        model = f"{name}-k{k}.model"
        orders = f"{name}-decoded.orders"
        vm = api.sat.VarMap(api.posets.build_poset(spec), k)
        cnf.write_model(work / model,
                        cnf.family_values(vm, families[name], vm.variable_count))

        def check(stdout, name=name, orders=orders):
            decoded = read_members(work / orders)
            if decoded != [tuple(m) for m in families[name]]:
                return [f"{orders}: decoded family differs from {name}"]
            return []

        def replay(r, spec=spec, k=k, d=d, model=model, orders=orders):
            P = r.api.posets.build_poset(spec)
            text = (r.work / model).read_text(encoding="utf-8")
            result = r.api.sat.parse_model_text(text)
            vm = r.api.sat.VarMap(P, k)
            family = r.api.sat.decode_realizer(result.model, vm, P)
            report = r.verify(P, spec, family)
            if not report.accepted or report.frequency > d:
                r.failures.append(f"decoded {spec} family fails verification")
            r.write_orders(replay_name(orders), family)

        commands.append(Command(
            f"solve --model {spec} k={k} d={d}", "decode",
            ["solve", "--poset", spec, "--k", str(k), "--d", str(d),
             "--model", model, "-o", orders],
            0, [orders], check, replay))
    return commands


def ldim_search(api, work: Path, seed: int) -> list[Command]:
    commands = []
    for spec, value in LDIM_POSETS.items():
        P = RefPoset(spec)
        out = f"ldim-{spec.replace(':', '')}.orders"

        def check(stdout, spec=spec, value=value, P=P, out=out):
            printed = int(stdout.split()[0])
            result = check_family(P, read_members(work / out), seed)
            problems = []
            if value is not None and printed != value:
                problems.append(f"ldim {spec} = {printed}, expected {value}")
            if not result.accepted or result.frequency != printed:
                problems.append(f"ldim {spec}: witness accepted="
                                f"{result.accepted} frequency={result.frequency}")
            return problems

        def replay(r, spec=spec, out=out):
            P = r.api.posets.build_poset(spec)
            try:
                _, family = r.api.sat.ldim_certificate(P)
            except r.api.errors.LdimkitError as exc:
                r.failures.append(f"ldim {spec}: {type(exc).__name__}: {exc}")
                return
            r.write_orders(replay_name(out), family)

        commands.append(Command(
            f"ldim {spec}", "ldim", ["ldim", "--poset", spec, "-o", out],
            0, [out], check, replay))
    return commands


WORKLOADS = {
    "build-verify": build_verify,
    "verify-reject": verify_reject,
    "sat-encode": sat_encode,
    "ldim-search": ldim_search,
}

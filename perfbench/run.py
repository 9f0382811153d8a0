#!/usr/bin/env python3
"""Benchmark of the ldimkit command line, end to end and layer by layer.

    python3 perfbench/run.py --workload build-verify --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program under test is
``src/ldimkit`` of that checkout, started as ``python3 -m ldimkit``.

One client runs the workload's commands one after another (a closed loop)
in rounds until ``--seconds`` have passed; every round runs the same
commands.  Each command is timed from spawn to reap and its own peak RSS
is read from ``wait4``.  Times are reported at a fixed machine speed: the
reference task (``reference.py``) is timed next to every command, and every
time is scaled by ``REFERENCE_S`` over the median reference time of the run.
Every output is checked against computations made apart from the program
(``checker.py``, ``faults.py``, ``cnf.py``).

With ``--trace 1`` the run instead executes each command as a CLI process
and then replays its library calls in-process, once to warm up, once
untraced and once traced, and reports per-layer metrics from the spans and
a separate memory pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from checker import RefPoset, check_family  # noqa: E402
from spans import Tracer  # noqa: E402

# A command that runs longer is killed.
COMMAND_LIMIT_S = 120.0
# The wall time of reference.py at the speed all times are reported at,
# about its time in a quiet stretch on the 2-core machine of the README's
# figures.  That machine's speed drifts by up to 45% within an hour, and the
# commands and the reference task drift together (see the README).
REFERENCE_S = 0.5
# A run takes at least this many samples of the reference task, half of them
# before the commands of the first round and at least two after the last:
# a workload of one round of three commands would otherwise scale by three.
REFERENCE_SAMPLES = 6
# Set-up is timed once at the start and before each command, and after the
# last round until a run has this many samples.
SETUP_SAMPLES = 5
SOLVER_ENV_VAR = "LDIMKIT_SAT_SOLVER"


@dataclass
class Outcome:
    label: str
    kind: str
    wall: float
    rss_mb: float
    rc: int
    ok: bool
    stdout: str
    error: str | None


class Runner:
    """Spawns CLI commands in a work directory, through the launcher, and
    checks their outputs."""

    def __init__(self, work: Path):
        self.work = work
        self.problems: list[str] = []
        self._launcher = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.stdout.close()
        self._launcher.wait()

    def spawn(self, argv: list[str]) -> tuple[float, float, int, str, str]:
        """(wall s, own peak RSS MB, exit code, stdout, stderr) of one
        ``python3 -m ldimkit`` command."""
        return self._spawn([sys.executable, "-m", "ldimkit", *argv])

    def _spawn(self, argv: list[str]) -> tuple[float, float, int, str, str]:
        out_path, err_path = self.work / ".stdout", self.work / ".stderr"
        request = {"argv": argv,
                   "cwd": str(self.work), "stdout": str(out_path),
                   "stderr": str(err_path), "limit": COMMAND_LIMIT_S}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process died")
        reply = json.loads(reply)
        return (reply["wall"], reply["maxrss_kb"] / 1024.0, reply["status"],
                out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"))

    def run(self, cmd: workloads.Command) -> Outcome:
        wall, rss, rc, stdout, stderr = self.spawn(cmd.argv)
        ok = rc == cmd.expect_rc
        error = None
        if not ok:
            lines = [l for l in stderr.splitlines() if l.startswith("ERROR:")]
            error = lines[0] if lines else f"exit {rc}: {stderr.strip()[-200:]}"
        # A verify report is checked whatever the exit code, so that a wrong
        # accept or reject is an incorrect answer and not only a failure.
        report = verify_report(stdout) if cmd.kind == "verify" else None
        if ok or report is not None:
            self.problems += [f"{cmd.label}: {p}"
                              for p in self._check(cmd, stdout, rc, report)]
        return Outcome(cmd.label, cmd.kind, wall, rss, rc, ok, stdout, error)

    @staticmethod
    def _check(cmd: workloads.Command, stdout: str, rc: int,
               report: dict | None) -> list[str]:
        """Problems with a command's outputs."""
        problems = []
        if report is not None and rc != (0 if report["accepted"] else 1):
            problems.append(f"exit {rc} with accepted={report['accepted']}")
        try:
            return problems + cmd.check(stdout)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            return problems + [f"unreadable output: {exc!r}"]

    def setup_time(self) -> float:
        """Wall time of a CLI process that loads the package and does no
        poset work; its output is checked like any other."""
        wall, _, rc, _, stderr = self.spawn(["tables", "b4", "-o", "b4.orders"])
        if rc != 0:
            raise RuntimeError(f"ldimkit tables b4 failed: {stderr.strip()}")
        result = check_family(RefPoset("boolean:4"),
                              workloads.read_members(self.work / "b4.orders"))
        if (result.accepted, result.frequency, result.size) != (True, 3, 4):
            self.problems.append(f"tables b4: not a frequency-3 realizer {result}")
        return wall

    def reference_time(self) -> float:
        """Wall time of the reference task."""
        wall, _, rc, _, stderr = self._spawn(
            [sys.executable, str(HERE / "reference.py")])
        if rc != 0:
            raise RuntimeError(f"reference task failed: {stderr.strip()}")
        return wall


def verify_report(stdout: str) -> dict | None:
    """The JSON report a ``verify --format json`` command printed, if any."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    return report if isinstance(report, dict) and "accepted" in report else None


# ------------------------------------------------------------- timing run


def kind_sums(outcomes: list[Outcome]) -> dict[str, float]:
    sums: dict[str, float] = {}
    for o in outcomes:
        sums[o.kind] = sums.get(o.kind, 0.0) + o.wall
    return sums


def timing_run(runner: Runner, commands, seconds: float, setup: list[float]):
    """Rounds of the commands until ``seconds`` have passed.  A set-up spawn
    and the reference task are timed before each command, so that both are
    sampled across the whole run and next to the commands they scale."""
    rounds, reference = [], []
    order = []  # reference samples ("r") and command wall times, in turn
    per_command = max(1, -(-REFERENCE_SAMPLES // (2 * len(commands))))

    def sample_reference(times: int) -> None:
        for _ in range(times):
            reference.append(runner.reference_time())
            order.append(f"r{reference[-1]:.3f}")

    deadline = time.perf_counter() + seconds
    while True:
        outcomes = []
        for cmd in commands:
            setup.append(runner.setup_time())
            sample_reference(per_command)
            outcomes.append(runner.run(cmd))
            order.append(f"{outcomes[-1].wall:.3f}")
        rounds.append(outcomes)
        if time.perf_counter() >= deadline:
            break
    setup += [runner.setup_time() for _ in range(SETUP_SAMPLES - len(setup))]
    sample_reference(max(2, REFERENCE_SAMPLES - len(reference)))
    outcomes = [o for r in rounds for o in r]
    speed = REFERENCE_S / statistics.median(reference)
    metrics = {
        "setup_s": (speed * statistics.median(setup), "s"),
        "round_s": (speed * statistics.median(sum(o.wall for o in r)
                                              for r in rounds), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MB"),
    }
    lines = [f"rounds: {len(rounds)}",
             f"reference task: median {statistics.median(reference):.4f} s "
             f"of {len(reference)}, times below are wall times; the metrics "
             f"are scaled by {speed:.4f}",
             "in turn: " + " ".join(order)]
    for kind, value in _per_kind(rounds).items():
        lines.append(f"{kind} = {value[0]:.4f} {value[1]}")
    for o in rounds[0]:
        lines.append(f"  {o.label}: {o.wall:.3f} s, {o.rss_mb:.1f} MB, exit {o.rc}"
                     + (f" [{o.error}]" if o.error else ""))
    return metrics, outcomes, lines


def _per_kind(rounds) -> dict[str, tuple[float, str]]:
    """The per-command sums a user of each subcommand sees, median over
    rounds: build_s, verify_s, encode_s, decode_s, ldim_per_min."""
    out: dict[str, tuple[float, str]] = {}
    for kind in ("build", "verify", "encode", "decode"):
        if any(o.kind == kind for o in rounds[0]):
            out[f"{kind}_s"] = (statistics.median(
                kind_sums(r)[kind] for r in rounds), "s")
    if any(o.kind == "ldim" for o in rounds[0]):
        out["ldim_per_min"] = (statistics.median(
            60.0 * sum(o.ok for o in r if o.kind == "ldim")
            / sum(o.wall for o in r if o.kind == "ldim") for r in rounds),
            "posets/min")
    return out


# -------------------------------------------------------------- traced run


def layer_targets(api):
    """(owner, attribute, span name, describe) for every wrapped call."""
    sat, realizers = api.sat, api.realizers

    def size_of(path):
        return os.path.getsize(path) if isinstance(path, (str, Path)) else 0

    return [
        (api.posets.Poset, "_leq_matrix", "posets.leq_matrix",
         lambda a, r: {"bytes": int(r.nbytes)} if r is not None else {}),
        (realizers, "build_bn_realizer", "realizers.build_bn_realizer", None),
        (realizers, "lift_product", "realizers.lift_product", None),
        (realizers, "verify_local_realizer", "realizers.verify_local_realizer", None),
        (api.singletons, "build_singleton_plan", "singletons.build_singleton_plan", None),
        (api.orders_io, "emit_orders_text", "orders_io.emit_orders_text",
         lambda a, r: {"bytes": len(r)} if r is not None else {}),
        (api.orders_io, "parse_orders_text", "orders_io.parse_orders_text",
         lambda a, r: {"bytes": len(a[0])}),
        (sat, "encode", "sat.encode",
         lambda a, r: {"poset": a[0].kind, "k": a[1], "d": a[2], **(
             {"variables": r[0].variable_count, "clauses": r[0].clause_count}
             if r is not None else {})}),
        (sat, "write_dimacs", "sat.write_dimacs",
         lambda a, r: {"bytes": size_of(a[2])}),
        (sat, "solve_instance", "sat.solve_instance", lambda a, r: {"d": a[2]}),
        (sat, "run_solver", "sat.run_solver", None),
        (sat, "decode_realizer", "sat.decode_realizer", None),
        (sat, "verify_local_realizer", "realizers.verify_local_realizer", None),
    ]


def memory_probes(api, verified, encodes) -> tuple[float, float, float]:
    """(validate_ple seconds summed over the members of each top-level
    verify, tracemalloc peak MB of verify, of encode), each taken apart from
    the traced pass on fresh posets."""
    validate = 0.0
    for spec, family, _ in verified:
        P = api.posets.build_poset(spec)
        P.leq_matrix()
        start = time.perf_counter()
        for member in family:
            api.realizers.validate_ple(P, member)
        validate += time.perf_counter() - start

    def peak_mb(fn, *args) -> float:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    verify_peak = max((peak_mb(api.realizers.verify_local_realizer,
                               api.posets.build_poset(spec), family)
                       for spec, family in {(s, f) for s, f, _ in verified}),
                      default=0.0)
    encode_peak = max((peak_mb(api.sat.encode, api.posets.build_poset(p), k, d)
                       for p, k, d in encodes), default=0.0)
    return validate, verify_peak, encode_peak


def trace_run(api, runner: Runner, commands):
    """Each command runs back to back as a CLI process, as an in-process
    warm-up replay that is not timed, and as an untraced and a traced
    replay, so that the differences between them are taken close together
    in time.  Without the warm-up the first in-process run pays one-time
    allocation costs: 5 s more than the second on the 3.3M-clause encode,
    when that instance was run."""
    cli, untraced_s = [], 0.0
    untraced = workloads.Replay(api, runner.work)
    traced = workloads.Replay(api, runner.work)
    tracer = Tracer()
    targets = layer_targets(api)
    for cmd in commands:
        cli.append(runner.run(cmd))
        cmd.replay(workloads.Replay(api, runner.work))
        start = time.perf_counter()
        cmd.replay(untraced)
        untraced_s += time.perf_counter() - start
        with tracer.wrapping(targets), \
                tracer.span("cli." + cmd.kind, command=cmd.label):
            cmd.replay(traced)
    runner.problems += replay_mismatches(runner.work, commands, cli, traced)

    spans = tracer.spans
    top = [i for i, s in enumerate(spans) if s.parent is None]
    named, total = tracer.named, tracer.total

    def under(i, name):
        return any(a.name == name for a in tracer.ancestors(i))

    leq = named("posets.leq_matrix")
    top_verify = [i for i in named("realizers.verify_local_realizer")
                  if spans[spans[i].parent].name.startswith("cli.")]
    leq_in = {i: sum(tracer.duration(j) for j in leq if spans[j].parent == i)
              for i in top_verify}
    encodes = {(spans[i].attrs["poset"], spans[i].attrs["k"], spans[i].attrs["d"])
               for i in named("sat.encode")}
    validate_s, verify_peak, encode_peak = memory_probes(api, traced.verified, encodes)
    verify_s = sum(tracer.duration(i) - leq_in[i] for i in top_verify)
    attr_sum = lambda name, key: sum(spans[i].attrs.get(key, 0) for i in named(name))  # noqa: E731
    cli_walls = kind_sums(cli)
    ldim = [o for o in cli if o.kind == "ldim"]

    metrics = {
        "posets.leq_matrix_s": (sum(tracer.duration(i) for i in leq
                                    if not under(i, "posets.leq_matrix")), "s"),
        "posets.leq_matrix_bytes": (attr_sum("posets.leq_matrix", "bytes"), "bytes"),
        "realizers.verify_s": (verify_s, "s"),
        "realizers.verify_peak_mb": (verify_peak, "MB"),
        "realizers.validate_ple_s": (validate_s, "s"),
        "realizers.verify_pairs_s": (verify_s - validate_s, "s"),
        "realizers.build_bn_s": (total("realizers.build_bn_realizer"), "s"),
        "realizers.lift_product_s": (total("realizers.lift_product"), "s"),
        "realizers.placements": (sum(len(m) for _, f, _ in traced.verified
                                     for m in f), "count"),
        "realizers.members": (sum(len(f) for _, f, _ in traced.verified), "count"),
        "realizers.violations_reported": (sum(len(r.violations) for _, _, r
                                              in traced.verified), "count"),
        "singletons.build_plan_s": (total("singletons.build_singleton_plan"), "s"),
        "orders_io.emit_s": (total("orders_io.emit_orders_text"), "s"),
        "orders_io.parse_s": (total("orders_io.parse_orders_text"), "s"),
        "orders_io.bytes": (attr_sum("orders_io.emit_orders_text", "bytes")
                            + attr_sum("orders_io.parse_orders_text", "bytes"), "bytes"),
        "sat.encode_s": (total("sat.encode"), "s"),
        "sat.encode_peak_mb": (encode_peak, "MB"),
        "sat.variables": (attr_sum("sat.encode", "variables"), "count"),
        "sat.clauses": (attr_sum("sat.encode", "clauses"), "count"),
        "sat.write_dimacs_s": (total("sat.write_dimacs"), "s"),
        "sat.dimacs_bytes": (attr_sum("sat.write_dimacs", "bytes"), "bytes"),
        "sat.decode_s": (total("sat.decode_realizer"), "s"),
        "sat.run_solver_s": (total("sat.run_solver"), "s"),
        "sat.solve_calls": (len(named("sat.run_solver")), "count"),
        "sat.reverify_s": (sum(
            tracer.duration(i) for i in named("realizers.verify_local_realizer")
            if under(i, "sat.solve_instance") or under(i, "cli.decode")), "s"),
        "cli.overhead_s": (sum(o.wall - tracer.duration(i)
                               for o, i in zip(cli, top)), "s"),
        "cli.build_s": (cli_walls.get("build", 0.0), "s"),
        "cli.verify_s": (cli_walls.get("verify", 0.0), "s"),
        "cli.encode_s": (cli_walls.get("encode", 0.0), "s"),
        "cli.decode_s": (cli_walls.get("decode", 0.0), "s"),
        "cli.ldim_per_min": (60.0 * sum(o.ok for o in ldim)
                             / sum(o.wall for o in ldim) if ldim else 0.0,
                             "posets/min"),
        "trace.overhead_s": (sum(tracer.duration(i) for i in top) - untraced_s, "s"),
    }

    lines = [f"untraced replay: {untraced_s:.4f} s, traced replay: "
             f"{sum(tracer.duration(i) for i in top):.4f} s"]
    lines.append("self time by span:")
    for name, own in sorted(tracer.self_by_name().items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name}: {own:.4f} s")
    for i in named("sat.solve_instance"):
        solver = sum(tracer.duration(j) for j in named("sat.run_solver")
                     if spans[j].parent == i)
        lines.append(f"  run_solver {spans[spans[i].parent].attrs['command']}"
                     f" d={spans[i].attrs['d']}: {solver:.4f} s")
    lines += [f"  replay failure: {f}" for f in traced.failures]
    return metrics, cli, lines, tracer


def replay_mismatches(work: Path, commands, cli, traced) -> list[str]:
    """The replay must produce what the CLI produced, or it measured
    other work."""
    problems = []
    for cmd, outcome in zip(commands, cli):
        if not outcome.ok:
            continue
        for name in cmd.outputs:
            copy = work / workloads.replay_name(name)
            if copy.exists():
                if workloads.digest(copy) != workloads.digest(work / name):
                    problems.append(f"{cmd.label}: replay wrote other {name}")
                copy.unlink()
        if cmd.kind == "verify" and traced.json_out.get(cmd.outputs[0]) != outcome.stdout:
            problems.append(f"{cmd.label}: replay report differs from the CLI's")
    return problems


# -------------------------------------------------------------------- main


def load_program():
    if not (SRC / "ldimkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no ldimkit sources under {SRC}; "
                         "run from the root of an ldimkit checkout")
    sys.path.insert(0, str(SRC))
    from ldimkit import (errors, fixtures, orders_io, posets, realizers, sat,
                         singletons)
    return argparse.Namespace(errors=errors, fixtures=fixtures,
                              orders_io=orders_io, posets=posets,
                              realizers=realizers, sat=sat,
                              singletons=singletons)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="'all' runs every workload in turn, each in its own "
                             "process, and prints each one's result")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in workloads.WORKLOADS]
        return max(codes)

    api = load_program()
    # Children, and the solver that in-process calls start, run this
    # checkout's package with the default backend.
    os.environ.pop(SOLVER_ENV_VAR, None)
    os.environ["PYTHONPATH"] = str(SRC)
    base = ROOT / ".perfbench_run"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(work)
    try:
        setup = [runner.setup_time()]  # also writes the b4.orders sat-encode reads
        commands = workloads.WORKLOADS[args.workload](api, work, args.seed)
        if args.trace:
            metrics, outcomes, lines, tracer = trace_run(api, runner, commands)
            spans_path = base / f"spans-{args.workload}-{args.seed}.json"
            tracer.write(spans_path)
            lines.append(f"spans: {spans_path.relative_to(ROOT)}")
        else:
            metrics, outcomes, lines = timing_run(runner, commands,
                                                  args.seconds, setup)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    failed = [o for o in outcomes if not o.ok]
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print(f"attempted: {len(outcomes)}  failed: {len(failed)}")
    for error in sorted({f"{o.label}: {o.error}" for o in failed}):
        print(f"  failed {error}")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in runner.problems:
        print(f"INCORRECT {problem}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

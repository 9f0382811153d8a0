"""Command line interface.

Exit codes: 0 success/accepted/sat, 1 rejected/unsat/audit-failed or no
frequency up to ``ldim --d-max`` works, 2 usage or malformed input, 3
environment or internal failure, a write to stdout lost on a full disk or
a closed pipe among them, or a write while descriptor 1 is closed.
Errors are printed to stderr as ``ERROR:<category>: <message>``.

Each subcommand imports the modules it uses when it runs.  ``tables``
never loads the SAT layer; ``encode`` never loads the verifier,
``realizers``, which every other command does (``solve --model`` once it
has read the model) but the ``analyze`` formulas, which load no numpy.
Only ``encode``, ``solve --model`` and ``--solver`` load ``dimacs``, and
only ``--solver`` loads ``subprocess`` and ``shlex``.  ``json`` is loaded
only where JSON is printed: by ``--format json`` and ``analyze``.

Where no bytecode is cached, a module compiles when its import starts,
and a compile before numpy loads stays under the process's peak.  Each
command compiles these before numpy, in order: ``verify`` ``orders_io``,
``realizers`` and ``posets``, each importing the next first; ``tables``
``fixtures`` and those three; ``build`` ``posets``; ``analyze``
``bounds``, then on ``signature`` those three; ``encode``, ``solve`` and
``ldim`` ``sat``, which imports numpy first.  Every other module compiles
after numpy.
"""

from __future__ import annotations

import argparse
import sys
from errno import EBADF
from math import ceil
from pathlib import Path

from .errors import (BoundExceededError, ContractError, DecodeError,
                     FormatError, LdimkitError, ParameterError, RangeError,
                     SolverEnvironmentError, SolverProtocolError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(2, f"ERROR:usage: {message}\n")


class _ClosedStdout:
    """``sys.stdout`` while descriptor 1 is closed: a write fails, and so
    does the flush after it, which argparse's swallowed write reaches."""

    lost = False

    def write(self, text):
        self.lost = True
        raise OSError(EBADF, "stdout is closed")

    def flush(self):
        if self.lost:
            self.write("")  # raises again


def _print_report_text(report) -> None:
    out = sys.stdout
    out.write(f"accepted: {'true' if report.accepted else 'false'}\n")
    out.write(f"frequency: {report.frequency}\n")
    out.write(f"size: {report.size}\n")
    if report.violations:
        out.write(f"violations: {len(report.violations)}\n")
        for v in report.violations:
            ple = "-" if v.ple is None else str(v.ple)
            out.write(f"  {v.kind} a={v.a} b={v.b} ple={ple}\n")


def _cmd_verify(args) -> int:
    from .orders_io import read_orders_family
    from .posets import build_poset
    from .realizers import verify_local_realizer

    P = build_poset(args.poset)
    report = verify_local_realizer(P, read_orders_family(args.orders))
    if args.format == "json":
        print(report.to_json(indent=2))
    else:
        _print_report_text(report)
    return 0 if report.accepted else 1


def _emit_orders(args, family, summary: list[str]) -> None:
    """The orders to ``-o`` with the summary on stdout, or else the orders
    on stdout with the summary on stderr."""
    from .orders_io import emit_orders_text, write_orders_file

    if args.out:
        write_orders_file(args.out, family)
        print("\n".join([*summary, f"orders: {args.out}"]))
    else:
        sys.stdout.write(emit_orders_text(family))
        print("\n".join(summary), file=sys.stderr)


def _cmd_build(args) -> int:
    from .posets import BooleanLattice, SingletonPoset, build_poset
    from .realizers import build_bn_realizer, verify_local_realizer
    from .singletons import build_singleton_plan, singleton_frequency_bound

    P = build_poset(args.poset)
    if not isinstance(P, (BooleanLattice, SingletonPoset)):
        raise ParameterError(
            f"build supports boolean:<n> and singleton:<n>, got {P.kind}")
    if isinstance(P, BooleanLattice) and args.d is not None:
        raise ParameterError("--d applies to singleton posets only")
    P._check_block_budget()  # verify's budget, before the family is built
    if isinstance(P, BooleanLattice):
        family = build_bn_realizer(P.n)
        head, bound = [], f"bound: {ceil(5 * P.n / 7)}"
    else:
        plan = build_singleton_plan(P.n, args.d)
        family = plan.family()
        fb = max(singleton_frequency_bound(P.n, plan.partition.d))
        head = [f"d: {plan.partition.d}", f"r: {plan.partition.r}"]
        bound = f"frequency-bound: {fb}"
    report = verify_local_realizer(P, family)
    if not report.accepted:
        raise DecodeError(
            f"built family fails verification for {P.kind}")  # pragma: no cover
    _emit_orders(args, family, [
        f"poset: {P.kind}", *head, f"frequency: {report.frequency}", bound,
        f"size: {report.size}"])
    return 0


def _cmd_encode(args) -> int:
    from .sat import encode
    from .dimacs import write_dimacs
    from .posets import build_poset

    P = build_poset(args.poset)
    formula, vm = encode(P, args.k, args.d, stream=True)
    write_dimacs(formula, vm, args.out or sys.stdout, args.map)
    if args.out:
        lines = [f"variables: {formula.variable_count}",
                 f"clauses: {formula.clause_count}", f"cnf: {args.out}"]
        if args.map:
            lines.append(f"map: {args.map}")
        print("\n".join(lines))
    return 0


def _solve_output(args, family) -> None:
    if args.format == "json":
        import json

        from .orders_io import write_orders_file

        payload = {"status": "sat", "frequency": family.frequency,
                   "size": family.size,
                   "orders": [ids.tolist() for ids in family.arrays]}
        print(json.dumps(payload, indent=2))
        if args.out:
            write_orders_file(args.out, family)
        return
    _emit_orders(args, family, [
        "status: sat", f"frequency: {family.frequency}",
        f"size: {family.size}"])


def _cmd_solve(args) -> int:
    from .sat import VarMap, decode_verified, solve_instance
    from .posets import build_poset

    if args.model and args.solver is not None:
        raise ParameterError("--model decodes a saved output; drop --solver")
    P = build_poset(args.poset)
    if args.model:
        from .dimacs import read_model

        vm = VarMap(P, args.k, args.d)  # refuses k < 1 or d < 1 up front
        with open(args.model, encoding="utf-8") as handle:
            result = read_model(handle)
        if result is None:
            raise SolverProtocolError(
                f"no solver status line found in {args.model}")
        if result.status == "sat":
            try:
                family = decode_verified(result.model, vm, P, args.d)
            except DecodeError as exc:
                # the saved file, not the program, names this family
                raise ContractError(str(exc)) from None
    else:
        result, family = solve_instance(P, args.k, args.d, args.solver)
    if result.status != "sat":
        if args.format == "json":
            import json

            print(json.dumps({"status": result.status}, indent=2))
        else:
            print(f"status: {result.status}")
        return 1
    _solve_output(args, family)
    return 0


def _cmd_ldim(args) -> int:
    from .sat import ldim_certificate
    from .orders_io import write_orders_file
    from .posets import build_poset

    P = build_poset(args.poset)
    d, family = ldim_certificate(P, args.d_max, args.solver)
    print(d)
    if args.out:
        write_orders_file(args.out, family)
    return 0


def _require(args, what: str, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ParameterError(f"analyze {what} requires --{name}")


def _cmd_analyze(args) -> int:
    from .bounds import (min_m_certifying, multiset_lower_bound,
                         signature_audit_report, turan_independence_floor)

    what = args.what
    if what == "multiset-bound":
        _require(args, what, "n", "m")
        print(multiset_lower_bound(args.n, args.m).to_json(indent=2))
        return 0
    if what == "min-m":
        _require(args, what, "n")
        print(multiset_lower_bound(args.n, min_m_certifying(args.n))
              .to_json(indent=2))
        return 0
    if what == "turan":
        _require(args, what, "n", "size")
        print(turan_independence_floor(args.n, args.size).to_json(indent=2))
        return 0
    # signature
    _require(args, what, "n", "m", "orders")
    from .orders_io import read_orders_family

    report = signature_audit_report(args.n, args.m,
                                    read_orders_family(args.orders))
    print(report.to_json(indent=2))
    return 0 if report.ok else 1


def _cmd_tables(args) -> int:
    from .fixtures import fixture_text

    text = fixture_text(args.which)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="ldimkit",
                     description="local dimension toolkit for posets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a local realizer")
    p.add_argument("--poset", required=True)
    p.add_argument("--orders", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("build", help="build a realizer for a known family")
    p.add_argument("--poset", required=True)
    p.add_argument("--d", type=int, default=None,
                   help="block width for singleton posets")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("encode", help="emit a DIMACS CNF instance")
    p.add_argument("--poset", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--map", default=None,
                   help="also write a variable map file")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("solve", help="solve one (k, d) instance")
    p.add_argument("--poset", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--solver", default=None)
    p.add_argument("--model", default=None,
                   help="decode a saved solver output instead of running one")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("ldim", help="exact local dimension via SAT search")
    p.add_argument("--poset", required=True)
    p.add_argument("--d-max", type=int, default=None)
    p.add_argument("--solver", default=None)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_ldim)

    p = sub.add_parser("analyze", help="evaluate lower-bound formulas")
    p.add_argument("what", choices=["multiset-bound", "min-m", "turan",
                                    "signature"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--orders", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("tables", help="print an embedded certificate table")
    p.add_argument("which", choices=["b4", "b7"])
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_tables)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit status.  stdout is flushed
    before any return, also after --help or a usage error, so that a write
    lost there fails here, as an OSError, and not at interpreter exit."""
    parser = _build_parser()
    closed = sys.stdout is None  # descriptor 1 is closed
    if closed:
        sys.stdout = _ClosedStdout()
    try:
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except SystemExit as exc:  # argparse printed --help or a usage error
            return int(exc.code or 0)
        finally:
            stdout = sys.stdout
            if closed:
                sys.stdout = None
            stdout.flush()
    except (ParameterError, FormatError) as exc:
        print(f"ERROR:usage: {exc}", file=sys.stderr)
        return 2
    except (ContractError, RangeError) as exc:
        print(f"ERROR:input: {exc}", file=sys.stderr)
        return 2
    except BoundExceededError as exc:
        print(f"ERROR:bound: {exc}", file=sys.stderr)
        return 1
    except (SolverEnvironmentError, SolverProtocolError, OSError) as exc:
        print(f"ERROR:environment: {exc}", file=sys.stderr)
        return 3
    except LdimkitError as exc:  # DecodeError, or a class not named above
        print(f"ERROR:internal: {exc}", file=sys.stderr)
        return 3

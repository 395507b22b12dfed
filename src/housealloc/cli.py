"""Command-line interface.

Subcommands: ``run`` (execute a mechanism), ``verify`` (check properties of
an allocation), ``gen`` (seeded random instance), ``report`` (empirical
property table over many random instances, with counterexample files).

Exit codes: 0 success, 1 a requested property fails, 2 input error,
3 internal error, 4 oracle budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from . import fileio, oracles
from .gen import GenParams, InvalidParams, random_instance, trial_params
from .mechanisms import (
    Mechanism,
    MechanismResult,
    PermutationError,
    PermutationPolicy,
    Solved,
    run_mechanism,
)
from .model import Instance, ModelError, welfare
from .oracles import BudgetExceeded

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3
EXIT_BUDGET = 4

REPORT_PROPERTIES = ("sir", "ir", "core", "po", "maxw-sir", "maxw-ir", "maxw")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise fileio.FileFormatError(f"cannot read {path}: {exc}") from exc


@contextmanager
def _writing(path: str | Path) -> Iterator[None]:
    """Report a failure to write ``path`` as an input error."""
    try:
        yield
    except OSError as exc:
        raise fileio.FileFormatError(f"cannot write {path}: {exc}") from exc


def _write_text(path: str | Path, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with _writing(path):
            Path(path).write_text(text, encoding="utf-8")


def _parse_seed(text: str, flag: str, error: type[ValueError]) -> int:
    """A seed written in decimal digits only, below 2^64: the generator keeps
    64 bits, so any other value would silently stand for another seed."""
    if not (text.isascii() and text.isdigit() and len(text) <= 20) or int(text) >= 1 << 64:
        raise error(f"{flag} must be a decimal integer in [0, 2^64), got {text!r}")
    return int(text)


def _parse_permutation(spec: str) -> PermutationPolicy:
    if spec == "identity":
        return PermutationPolicy.identity()
    if spec.startswith("seed:"):
        return PermutationPolicy.seeded(
            _parse_seed(spec[len("seed:"):], "--permutation seed", PermutationError)
        )
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        order = fileio.load_json(_read_text(path), f"permutation file {path}", PermutationError)
        if not isinstance(order, list) or not all(isinstance(a, str) for a in order):
            raise PermutationError(f"permutation file {path} must hold a list of agent ids")
        return PermutationPolicy.explicit(tuple(order))
    raise PermutationError(
        f"--permutation must be identity, seed:<u64> or file:<path>, got {spec!r}"
    )


def cmd_run(args: argparse.Namespace) -> int:
    instance = fileio.loads_instance(_read_text(args.input))
    policy = _parse_permutation(args.permutation)
    result = run_mechanism(instance, Mechanism(args.mechanism), policy)
    _write_text(args.output, fileio.dumps_allocation(instance, result.allocation, result.trace))
    return EXIT_OK


def _witness_prose(witness: object) -> str:
    if isinstance(witness, oracles.ViolationWitness):
        got = witness.assigned if witness.assigned is not None else "nothing"
        return f"agent {witness.agent} owned {witness.endowment} but receives {got}"
    if isinstance(witness, oracles.DominationWitness):
        pairs = ", ".join(
            f"{a}->{h if h is not None else 'null'}"
            for a, h in witness.allocation.assignment.items()
        )
        return f"dominated by {{{pairs}}}"
    if isinstance(witness, oracles.BlockingWitness):
        trade = ", ".join(f"{a}->{h}" for a, h in witness.reallocation.items())
        return f"blocking coalition {{{', '.join(witness.coalition)}}} trading {trade}"
    if isinstance(witness, oracles.WeakBlockingWitness):
        trade = ", ".join(f"{a}->{h}" for a, h in witness.reallocation.items())
        return (
            f"weakly blocking coalition {{{', '.join(witness.coalition)}}} trading "
            f"{trade} (agent {witness.improving_agent} gains)"
        )
    if isinstance(witness, oracles.WelfareGapWitness):
        if witness.achieved < witness.target:
            return f"welfare {witness.achieved} but {witness.target} is attainable"
        return (
            f"welfare {witness.achieved} differs from the constrained "
            f"maximum {witness.target}"
        )
    if isinstance(witness, oracles.ManipulationWitness):
        return (
            f"agent {witness.agent} gains by reporting {sorted(witness.reported)}"
        )
    return str(witness)


def cmd_verify(args: argparse.Namespace) -> int:
    instance = fileio.loads_instance(_read_text(args.input))
    allocation, _, _ = fileio.loads_allocation(_read_text(args.allocation), instance)
    requested = tuple(p.strip() for p in args.properties.split(",") if p.strip())
    for key in requested:
        if key not in oracles.PROPERTY_KEYS:
            raise fileio.FileFormatError(
                f"unknown property {key!r}; choose from {', '.join(oracles.PROPERTY_KEYS)}"
            )
    if not requested:
        raise fileio.FileFormatError("--properties lists no properties")
    report = oracles.evaluate_properties(instance, allocation, requested)
    for key, verdict in report.verdicts.items():
        if verdict.holds:
            print(f"{key}: holds")
        else:
            print(f"{key}: fails ({_witness_prose(verdict.witness)})")
    if args.json is not None:
        doc = json.dumps(fileio.report_to_doc(report), indent=2, ensure_ascii=False) + "\n"
        _write_text(args.json, doc)
    return EXIT_OK if report.all_hold else EXIT_PROPERTY_FAILURE


def cmd_gen(args: argparse.Namespace) -> int:
    params = GenParams(
        agents=args.agents,
        houses=args.houses,
        endow_prob=args.endow_prob,
        accept_prob=args.accept_prob,
        seed=_parse_seed(args.seed, "--seed", InvalidParams),
    )
    instance = random_instance(params)
    _write_text(args.output, fileio.dumps_instance(instance))
    return EXIT_OK


def _report_checks(
    instance: Instance, result: MechanismResult, maxima: oracles.WelfareMaxima
) -> dict[str, oracles.Verdict]:
    """Per-property verdicts for one mechanism run.  The welfare targets and
    exemplars are the enumeration's, shared by both mechanisms' runs."""
    alloc = result.allocation
    checks = oracles.evaluate_properties(instance, alloc, ("sir", "ir", "core", "po")).verdicts
    achieved = welfare(instance, alloc)
    for key, target, exemplar in (
        ("maxw-sir", maxima.sir, maxima.sir_argmax),
        ("maxw-ir", maxima.ir, maxima.ir_argmax),
        ("maxw", maxima.unconstrained, maxima.unconstrained_argmax),
    ):
        ok = achieved == target
        checks[key] = oracles.Verdict(
            ok, None if ok else oracles.WelfareGapWitness(achieved, target, exemplar)
        )
    return checks


def cmd_report(args: argparse.Namespace) -> int:
    if args.max_agents < 0 or args.max_houses < 0:
        raise InvalidParams("--max-agents and --max-houses must be non-negative")
    if args.trials < 1:
        raise InvalidParams(f"--trials must be at least 1, got {args.trials}")
    seed = _parse_seed(args.seed, "--seed", InvalidParams)
    if args.max_agents > oracles.MAX_ALLOC_AGENTS or args.max_houses > oracles.MAX_ALLOC_HOUSES:
        raise BudgetExceeded(
            f"--max-agents/--max-houses exceed the allocation enumeration budget "
            f"({oracles.MAX_ALLOC_AGENTS} x {oracles.MAX_ALLOC_HOUSES})"
        )
    include_sp = args.sp == "on"
    if include_sp and args.max_houses > oracles.MAX_MISREPORT_HOUSES:
        raise BudgetExceeded(f"--sp on needs --max-houses <= {oracles.MAX_MISREPORT_HOUSES}")
    properties = REPORT_PROPERTIES + (("sp",) if include_sp else ())
    mechanisms = (Mechanism.MSIR, Mechanism.MIR)
    passes = {mech: {p: 0 for p in properties} for mech in mechanisms}
    counterexamples: dict[tuple[Mechanism, str], dict[str, Any]] = {}

    out_dir = Path(args.out_dir)
    for trial in range(args.trials):
        params = trial_params(seed, trial, args.max_agents, args.max_houses)
        instance = random_instance(params)
        maxima = oracles.welfare_maxima(instance)
        for mech in mechanisms:
            solved = Solved(instance, mech)
            result = solved.truthful
            checks = _report_checks(instance, result, maxima)
            if include_sp:
                manipulation = oracles.check_strategyproofness(solved)
                checks["sp"] = oracles.Verdict(manipulation is None, manipulation)
            for prop, verdict in checks.items():
                if verdict.holds:
                    passes[mech][prop] += 1
                elif (mech, prop) not in counterexamples:
                    counterexamples[(mech, prop)] = {
                        "trial": trial,
                        "instance": instance,
                        "result": result,
                        "witness": verdict.witness,
                    }

    print(f"trials={args.trials} seed={seed} "
          f"max_agents={args.max_agents} max_houses={args.max_houses}")
    width = max(len(p) for p in properties)
    print(f"{'property'.ljust(width)}  {'msir':>8}  {'mir':>8}")
    for prop in properties:
        cells = [
            f"{100.0 * passes[mech][prop] / args.trials:.1f}%"
            for mech in mechanisms
        ]
        print(f"{prop.ljust(width)}  {cells[0]:>8}  {cells[1]:>8}")

    if counterexamples:
        with _writing(out_dir):
            out_dir.mkdir(parents=True, exist_ok=True)
        print("counterexamples:")
        for (mech, prop), found in sorted(
            counterexamples.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
        ):
            stem = f"{mech.value}_{prop}"
            instance = found["instance"]
            result = found["result"]
            _write_text(out_dir / f"{stem}_instance.json", fileio.dumps_instance(instance))
            _write_text(
                out_dir / f"{stem}_allocation.json",
                fileio.dumps_allocation(instance, result.allocation, result.trace),
            )
            witness_doc = {
                "mechanism": mech.value,
                "property": prop,
                "trial": found["trial"],
                "witness": fileio.witness_to_doc(found["witness"]),
            }
            _write_text(
                out_dir / f"{stem}_witness.json",
                json.dumps(witness_doc, indent=2, ensure_ascii=False) + "\n",
            )
            print(f"  {mech.value}/{prop}: trial {found['trial']} -> {out_dir / stem}_*.json")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="housealloc",
        description="House allocation with existing tenants under dichotomous preferences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a mechanism on an instance file")
    p_run.add_argument("input", help="instance file (JSON)")
    p_run.add_argument("--mechanism", required=True, choices=["msir", "mir"])
    p_run.add_argument(
        "--permutation",
        default="identity",
        help="identity | seed:<u64> | file:<path> (JSON list of agent ids)",
    )
    p_run.add_argument("--output", default="-", help="output path, - for stdout")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="verify properties of an allocation")
    p_verify.add_argument("input", help="instance file (JSON)")
    p_verify.add_argument("allocation", help="allocation file (JSON)")
    p_verify.add_argument(
        "--properties",
        required=True,
        help="comma-separated subset of: " + ",".join(oracles.PROPERTY_KEYS),
    )
    p_verify.add_argument("--json", default=None, help="also write a JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a seeded random instance")
    p_gen.add_argument("--agents", type=int, required=True)
    p_gen.add_argument("--houses", type=int, required=True)
    p_gen.add_argument("--endow-prob", type=float, required=True)
    p_gen.add_argument("--accept-prob", type=float, required=True)
    p_gen.add_argument("--seed", required=True, help="integer in [0, 2^64)")
    p_gen.add_argument("--output", default="-", help="output path, - for stdout")
    p_gen.set_defaults(func=cmd_gen)

    p_report = sub.add_parser(
        "report", help="empirical property table over random instances"
    )
    p_report.add_argument("--trials", type=int, default=1000)
    p_report.add_argument("--seed", default="0", help="integer in [0, 2^64)")
    p_report.add_argument("--max-agents", type=int, default=6)
    p_report.add_argument("--max-houses", type=int, default=6)
    p_report.add_argument("--sp", choices=["on", "off"], default="off",
                          help="also sweep for profitable misreports (slow)")
    p_report.add_argument("--out-dir", default="report-artifacts",
                          help="directory for counterexample files")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ModelError, fileio.FileFormatError, InvalidParams, PermutationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # internal fault, including any other ValueError: never expected
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())

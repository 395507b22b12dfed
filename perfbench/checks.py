"""Correctness checks that do not rely on the recorded references.

They use the package's independent oracles (brute force and a separate
matcher, never the production solver) and the witness re-verification
functions.  Each check returns a list of problems; an empty list passes.
Checks run outside the op timing and with tracing off.

* ``run`` outputs: welfare equals the trace's ``W``; MSIR outputs pass
  ``sir_violation``; MIR outputs pass ``ir_violation``, the Pareto
  certificate and ``max_welfare``.
* ``verify`` outputs: the stdout lines, exit code and ``--json`` report
  agree; every failing verdict's witness re-validates; the properties the
  mechanism guarantees hold.
* ``report`` outputs: every counterexample witness re-validates against
  the instance and allocation files written beside it.  A profitable
  misreport is a verdict about the mechanism, not a failed op.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# Properties each mechanism guarantees on its own output.
GUARANTEED = {
    "msir": ("ir", "sir", "maxw-sir"),
    "mir": ("ir", "po", "maxw", "maxw-ir"),
}
WELFARE_CONSTRAINT = {"maxw": "none", "maxw-ir": "ir", "maxw-sir": "sir"}


def _pkg(name: str):
    return sys.modules[f"housealloc.{name}"]


class Inputs:
    """Parsed input files of the work directory, each parsed once."""

    def __init__(self) -> None:
        self._instances: dict[str, object] = {}

    def instance(self, path: str):
        if path not in self._instances:
            text = Path(path).read_text(encoding="utf-8")
            self._instances[path] = _pkg("fileio").loads_instance(text)
        return self._instances[path]


def check_run(inputs: Inputs, argv: list[str], files: dict[str, bytes]) -> list[str]:
    oracles, model = _pkg("oracles"), _pkg("model")
    instance = inputs.instance(argv[1])
    mechanism = argv[argv.index("--mechanism") + 1]
    output = argv[argv.index("--output") + 1]
    if output not in files:
        return [f"no allocation written to {output}"]
    allocation, stated, trace = _pkg("fileio").loads_allocation(
        files[output].decode("utf-8"), instance
    )
    problems = []
    achieved = model.welfare(instance, allocation)
    if trace is None or not (achieved == stated == trace["W"]):
        problems.append("welfare differs from the trace's W")
    if mechanism == "msir":
        if oracles.sir_violation(instance, allocation) is not None:
            problems.append("MSIR output violates S-IR")
    else:
        if oracles.ir_violation(instance, allocation) is not None:
            problems.append("MIR output violates IR")
        if not oracles.is_pareto_optimal(instance, allocation, method="certificate").holds:
            problems.append("MIR output is not Pareto optimal")
        if achieved != oracles.max_welfare(instance):
            problems.append("MIR output misses the welfare maximum")
    return problems


def _witness_holds(instance, allocation, key: str, doc: dict, mechanism: str) -> bool:
    """Re-validate one witness document with the oracles' checker."""
    oracles, model = _pkg("oracles"), _pkg("model")
    kind = doc["kind"]
    if kind == "rationality-violation":
        witness = oracles.ViolationWitness(doc["agent"], doc["endowment"], doc["assigned"])
        return oracles.verify_violation_witness(instance, allocation, witness, key)
    if kind == "dominating-allocation":
        witness = oracles.DominationWitness(model.Allocation(assignment=doc["allocation"]))
        return oracles.verify_domination_witness(instance, allocation, witness)
    if kind == "blocking-coalition":
        witness = oracles.BlockingWitness(tuple(doc["coalition"]), doc["reallocation"])
        return oracles.verify_blocking_witness(instance, allocation, witness)
    if kind == "weakly-blocking-coalition":
        witness = oracles.WeakBlockingWitness(
            tuple(doc["coalition"]), doc["reallocation"], doc["improving_agent"]
        )
        return oracles.verify_weak_blocking_witness(instance, allocation, witness)
    if kind == "welfare-gap":
        witness = oracles.WelfareGapWitness(
            doc["achieved"], doc["target"], model.Allocation(assignment=doc["exemplar"])
        )
        return oracles.verify_welfare_gap_witness(
            instance, allocation, witness, WELFARE_CONSTRAINT[key]
        )
    if kind == "profitable-misreport":
        witness = oracles.ManipulationWitness(
            doc["agent"],
            frozenset(doc["reported"]),
            doc["truthful_utility"],
            doc["misreport_utility"],
        )
        mech = _pkg("mechanisms").Mechanism(mechanism)
        return oracles.verify_manipulation_witness(instance, mech, witness)
    return False


def check_verify(
    inputs: Inputs, argv: list[str], mechanism: str, exit_code: int | None,
    stdout: bytes, files: dict[str, bytes],
) -> list[str]:
    instance = inputs.instance(argv[1])
    allocation, _, _ = _pkg("fileio").loads_allocation(
        Path(argv[2]).read_text(encoding="utf-8"), instance
    )
    requested = argv[argv.index("--properties") + 1].split(",")
    report_path = argv[argv.index("--json") + 1]
    if report_path not in files:
        return [f"no report written to {report_path}"]
    report = json.loads(files[report_path])
    problems = []
    if list(report) != requested:
        problems.append("report keys differ from the requested properties")
    lines = stdout.decode("utf-8").splitlines()
    if [line.split(":", 1)[0] for line in lines] != list(report):
        problems.append("stdout lines differ from the report keys")
    for line, (key, verdict) in zip(lines, report.items()):
        if line.startswith(f"{key}: holds") != verdict["holds"]:
            problems.append(f"stdout and report disagree on {key}")
        if not verdict["holds"] and not _witness_holds(
            instance, allocation, key, verdict["witness"], mechanism
        ):
            problems.append(f"{key} witness does not re-validate")
    all_hold = all(v["holds"] for v in report.values())
    if exit_code != (0 if all_hold else 1):
        problems.append(f"exit code {exit_code} does not match the verdicts")
    for key in GUARANTEED[mechanism]:
        if key in report and not report[key]["holds"]:
            problems.append(f"{mechanism.upper()} output fails {key}")
    return problems


def check_report(files: dict[str, bytes]) -> list[str]:
    fileio = _pkg("fileio")
    problems = []
    for name in files:
        if not name.endswith("_witness.json"):
            continue
        stem = name[: -len("_witness.json")]
        doc = json.loads(files[name])
        instance = fileio.loads_instance(files[f"{stem}_instance.json"].decode("utf-8"))
        allocation, _, _ = fileio.loads_allocation(
            files[f"{stem}_allocation.json"].decode("utf-8"), instance
        )
        if not _witness_holds(
            instance, allocation, doc["property"], doc["witness"], doc["mechanism"]
        ):
            problems.append(f"{name}: witness does not re-validate")
    return problems


def check(inputs: Inputs, op: dict, exit_code, stdout: bytes, files: dict[str, bytes]) -> list[str]:
    """Run the checks for one op; an exception is reported as a problem."""
    argv = op["argv"]
    try:
        if argv[0] == "run":
            return check_run(inputs, argv, files)
        if argv[0] == "verify":
            return check_verify(inputs, argv, op["mechanism"], exit_code, stdout, files)
        if argv[0] == "report":
            return check_report(files)
    except Exception as exc:  # a check that cannot run fails the op
        return [f"check raised {type(exc).__name__}: {exc}"]
    return [f"no check for {argv[0]!r}"]

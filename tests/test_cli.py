import json
from pathlib import Path

import pytest

import housealloc.mechanisms as mechanisms
from housealloc.cli import main
from housealloc.fileio import (
    FileFormatError,
    dumps_allocation,
    dumps_instance,
    loads_allocation,
    loads_instance,
)
from housealloc.mechanisms import InfeasibleInput
from housealloc.model import Allocation

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    if capsys is not None:
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return code


# ---------------------------------------------------------------------------
# File formats


def test_fixture_files_round_trip_bytes():
    for name in ("e1", "e2", "e3"):
        text = (FIXTURES / f"{name}.json").read_text(encoding="utf-8")
        assert dumps_instance(loads_instance(text)) == text


def test_instance_rejects_unknown_keys():
    doc = json.loads((FIXTURES / "e2.json").read_text())
    doc["flavor"] = "spicy"
    with pytest.raises(FileFormatError, match="flavor"):
        loads_instance(json.dumps(doc))


def test_instance_rejects_missing_agent_fields():
    doc = json.loads((FIXTURES / "e2.json").read_text())
    del doc["agents"][0]["endowment"]
    with pytest.raises(FileFormatError, match="endowment"):
        loads_instance(json.dumps(doc))


def test_allocation_document_round_trip(e2):
    alloc = Allocation({"1": "h2", "2": None})
    text = dumps_allocation(e2, alloc)
    parsed, stated, trace = loads_allocation(text, e2)
    assert parsed.assignment == {"1": "h2", "2": None}
    assert stated == 1 and trace is None
    assert dumps_allocation(e2, parsed) == text


def test_allocation_document_welfare_must_match(e2):
    text = json.dumps({"allocation": {"1": "h2", "2": None}, "welfare": 2})
    with pytest.raises(FileFormatError, match="welfare"):
        loads_allocation(text, e2)


def test_allocation_document_rejects_duplicate_house(e2):
    text = json.dumps({"allocation": {"1": "h1", "2": "h1"}, "welfare": 0})
    with pytest.raises(FileFormatError):
        loads_allocation(text, e2)


# ---------------------------------------------------------------------------
# run


def test_run_msir_on_e2(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = main(["run", str(FIXTURES / "e2.json"), "--mechanism", "msir",
                 "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["allocation"] == {"1": "h1", "2": "h2"}
    assert doc["welfare"] == 0
    assert doc["trace"]["W"] == 0
    assert doc["trace"]["t"] == {"1": 0, "2": 0}


def test_run_mir_on_e2(tmp_path):
    out = tmp_path / "out.json"
    assert main(["run", str(FIXTURES / "e2.json"), "--mechanism", "mir",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["allocation"]["1"] == "h2"
    assert doc["welfare"] == 1


def test_run_empty_instance(tmp_path):
    src = tmp_path / "empty.json"
    src.write_text(json.dumps({"agents": [], "houses": []}))
    out = tmp_path / "out.json"
    assert main(["run", str(src), "--mechanism", "msir", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["allocation"] == {} and doc["welfare"] == 0


def test_run_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["run", str(FIXTURES / "e1.json"), "--mechanism", "mir",
                     "--output", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_with_permutation_file(tmp_path):
    perm = tmp_path / "perm.json"
    perm.write_text(json.dumps(["3", "4", "1", "2"]))
    out = tmp_path / "out.json"
    assert main(["run", str(FIXTURES / "e3.json"), "--mechanism", "mir",
                 "--permutation", f"file:{perm}", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["allocation"] == {"1": "h3", "2": "h4", "3": "h1", "4": "h2"}
    assert doc["trace"]["permutation"] == ["3", "4", "1", "2"]


def test_run_with_seeded_permutation_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["run", str(FIXTURES / "e1.json"), "--mechanism", "msir",
                     "--permutation", "seed:99", "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_bad_permutation_file_is_input_error(tmp_path):
    perm = tmp_path / "perm.json"
    perm.write_text(json.dumps(["1"]))  # not a permutation of N
    assert main(["run", str(FIXTURES / "e3.json"), "--mechanism", "mir",
                 "--permutation", f"file:{perm}"]) == 2


def test_run_missing_file_is_input_error():
    assert main(["run", "no-such-file.json", "--mechanism", "msir"]) == 2


def test_run_invalid_instance_is_input_error(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({
        "agents": [
            {"id": "1", "endowment": "h1", "acceptable": []},
            {"id": "2", "endowment": "h1", "acceptable": []},
        ],
        "houses": ["h1"],
    }))
    assert main(["run", str(src), "--mechanism", "msir"]) == 2
    assert "h1" in capsys.readouterr().err


def test_run_undecodable_file_is_input_error(tmp_path):
    src = tmp_path / "latin1.json"
    src.write_bytes('{"agents": [], "houses": ["caf\u00e9"]}'.encode("latin-1"))
    assert main(["run", str(src), "--mechanism", "msir"]) == 2


def test_negative_report_size_is_input_error():
    # trial 0 draws n from 0..max_agents, which needs max_agents >= 0
    assert main(["report", "--trials", "1", "--max-agents", "-1"]) == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_report_without_trials_is_input_error(trials, capsys):
    # a table of 0.0% cells would read as every property failing
    assert main(["report", "--trials", trials]) == 2
    assert "--trials" in capsys.readouterr().err


# -1 and 2^64 would alias 2^64 - 1 and 0; the rest are not plain digits
BAD_SEEDS = [
    pytest.param(text, id=name)
    for name, text in [("minus-one", "-1"), ("two-to-64", "18446744073709551616"),
                       ("plus", "+3"), ("space", " 3"), ("underscore", "1_000"),
                       ("empty", ""), ("5000-digits", "9" * 5000)]
]


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_bad_permutation_seed_is_input_error(seed):
    assert main(["run", str(FIXTURES / "e2.json"), "--mechanism", "msir",
                 "--permutation", f"seed:{seed}"]) == 2


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_bad_gen_seed_is_input_error(seed, tmp_path):
    out = tmp_path / "inst.json"
    assert main(["gen", "--agents", "2", "--houses", "2", "--endow-prob", "0.5",
                 "--accept-prob", "0.5", "--seed", seed, "--output", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_bad_report_seed_is_input_error(seed, tmp_path):
    assert main(["report", "--trials", "1", "--seed", seed,
                 "--out-dir", str(tmp_path / "cx")]) == 2


def test_largest_seed_is_accepted(tmp_path):
    top = str((1 << 64) - 1)
    assert main(["run", str(FIXTURES / "e2.json"), "--mechanism", "msir",
                 "--permutation", f"seed:{top}", "--output", str(tmp_path / "a.json")]) == 0
    assert main(["gen", "--agents", "2", "--houses", "2", "--endow-prob", "0.5",
                 "--accept-prob", "0.5", "--seed", top, "--output", str(tmp_path / "i.json")]) == 0
    assert main(["report", "--trials", "1", "--seed", top, "--max-agents", "2",
                 "--max-houses", "2", "--out-dir", str(tmp_path / "cx")]) == 0


@pytest.mark.parametrize("fault", [InfeasibleInput, ValueError])
def test_internal_value_errors_are_internal_errors(monkeypatch, capsys, fault):
    # Solver and mechanism faults subclass ValueError, yet no input causes
    # them; they must not be reported as bad input.
    def broken(*args, **kwargs):
        raise fault("solver fault")

    monkeypatch.setattr("housealloc.cli.run_mechanism", broken)
    code = main(["run", str(FIXTURES / "e2.json"), "--mechanism", "msir"])
    assert code == 3
    assert "internal error: solver fault" in capsys.readouterr().err


def test_internal_fault_in_allocation_validation_is_internal_error(monkeypatch, tmp_path, capsys):
    # only an invalid allocation is bad input; any other fault is the program's
    e2 = str(FIXTURES / "e2.json")
    alloc = write_allocation(tmp_path, e2, {"1": "h1", "2": "h2"})

    def broken(*args):
        raise RuntimeError("validator fault")

    monkeypatch.setattr("housealloc.fileio.validate_allocation", broken)
    code, _, err = run_cli("verify", e2, str(alloc), "--properties", "ir", capsys=capsys)
    assert code == 3
    assert "internal error: validator fault" in err


def reading_json(role, path):
    """Arguments that make the CLI read ``path`` as the JSON of ``role``."""
    e2 = str(FIXTURES / "e2.json")
    return {
        "instance": ["run", str(path), "--mechanism", "msir"],
        "allocation": ["verify", e2, str(path), "--properties", "ir"],
        "permutation": ["run", e2, "--mechanism", "msir", "--permutation", f"file:{path}"],
    }[role]


@pytest.mark.parametrize("role", ["instance", "allocation", "permutation"])
def test_over_nested_json_is_input_error(tmp_path, capsys, role):
    # json.loads gives up on this with a RecursionError, not a decode error
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    code, _, err = run_cli(*reading_json(role, deep), capsys=capsys)
    assert code == 2
    assert err.startswith("error: ") and "recursion" in err


@pytest.mark.parametrize("role", ["instance", "allocation", "permutation"])
def test_long_integer_literal_is_input_error(tmp_path, capsys, role):
    # past CPython's int-to-string limit json.loads raises a plain ValueError
    long = tmp_path / "long.json"
    long.write_text("[" + "7" * 5000 + "]")
    code, _, err = run_cli(*reading_json(role, long), capsys=capsys)
    assert code == 2
    assert err.startswith("error: ") and "4300" in err


def surrogate_instance(tmp_path):
    """A one-agent market whose agent id is a lone surrogate, which JSON
    text may escape but UTF-8 cannot encode."""
    src = tmp_path / "surrogate.json"
    src.write_text('{"agents": [{"id": "\\ud800", "endowment": null, "acceptable": ["h"]}],'
                   ' "houses": ["h"]}')
    return src


def test_lone_surrogate_id_is_input_error_on_stdout(tmp_path, capsys):
    code, out, err = run_cli("run", str(surrogate_instance(tmp_path)), "--mechanism", "msir",
                             capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: agent id") and "surrogate" in err


def test_lone_surrogate_id_is_input_error_with_output(tmp_path, capsys):
    out = tmp_path / "out.json"
    code, _, err = run_cli("run", str(surrogate_instance(tmp_path)), "--mechanism", "msir",
                           "--output", str(out), capsys=capsys)
    assert code == 2 and not out.exists()
    assert err.startswith("error: agent id") and "surrogate" in err


def test_duplicate_keys_load_with_the_last_one_winning(tmp_path, capsys):
    # documented in README: no object_pairs_hook, so a repeated key is not an error
    src = tmp_path / "dup.json"
    src.write_text('{"agents": [], "houses": ["h"],'
                   ' "agents": [{"id": "a", "endowment": null, "acceptable": ["h"],'
                   ' "acceptable": []}]}')
    instance = loads_instance(src.read_text())
    assert instance.agents == ("a",) and instance.acceptable["a"] == frozenset()
    code, out, _ = run_cli("run", str(src), "--mechanism", "mir", capsys=capsys)
    assert code == 0 and json.loads(out)["welfare"] == 0


@pytest.mark.parametrize("command", ["run", "gen", "verify", "report"])
def test_unwritable_output_is_input_error(tmp_path, capsys, command):
    missing = str(tmp_path / "no-such-dir" / "out.json")
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    e2 = str(FIXTURES / "e2.json")
    alloc = write_allocation(tmp_path, e2, {"1": "h1", "2": "h2"})
    argv = {
        "run": ["run", e2, "--mechanism", "msir", "--output", missing],
        "gen": ["gen", "--agents", "2", "--houses", "2", "--endow-prob", "0.5",
                "--accept-prob", "0.5", "--seed", "1", "--output", missing],
        "verify": ["verify", e2, str(alloc), "--properties", "ir", "--json", missing],
        "report": ["report", "--trials", "50", "--seed", "5", "--max-agents", "4",
                   "--max-houses", "4", "--out-dir", str(a_file)],
    }[command]
    code, _, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert err.startswith("error: cannot write ")


# ---------------------------------------------------------------------------
# verify


def write_allocation(tmp_path, instance_path, assignment, name="alloc.json"):
    inst = loads_instance(Path(instance_path).read_text())
    path = tmp_path / name
    path.write_text(dumps_allocation(inst, Allocation(assignment)))
    return path


def test_verify_e3_z_ir_holds_core_fails(tmp_path, capsys):
    alloc = write_allocation(
        tmp_path, FIXTURES / "e3.json",
        {"1": "h3", "2": "h4", "3": "h1", "4": "h2"},
    )
    code, out, _ = run_cli(
        "verify", str(FIXTURES / "e3.json"), str(alloc),
        "--properties", "ir,core", capsys=capsys,
    )
    assert code == 1
    assert "ir: holds" in out
    assert "core: fails" in out
    assert "1" in out and "2" in out  # the blocking pair is named


def test_verify_e1_y_ir_po_hold(tmp_path, capsys):
    alloc = write_allocation(
        tmp_path, FIXTURES / "e1.json",
        {"1": "h2", "2": "h3", "3": "h1", "4": "h5", "5": "h6"},
    )
    code, out, _ = run_cli(
        "verify", str(FIXTURES / "e1.json"), str(alloc),
        "--properties", "ir,po", capsys=capsys,
    )
    assert code == 0
    assert out == "ir: holds\npo: holds\n"


def test_verify_e1_x_sir_holds(tmp_path, capsys):
    alloc = write_allocation(
        tmp_path, FIXTURES / "e1.json",
        {"1": "h2", "2": "h3", "3": "h1", "4": "h4", "5": "h5"},
    )
    code, out, _ = run_cli(
        "verify", str(FIXTURES / "e1.json"), str(alloc),
        "--properties", "sir", capsys=capsys,
    )
    assert code == 0
    assert "sir: holds" in out


def test_verify_json_report(tmp_path, capsys):
    alloc = write_allocation(
        tmp_path, FIXTURES / "e3.json",
        {"1": "h3", "2": "h4", "3": "h1", "4": "h2"},
    )
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        "verify", str(FIXTURES / "e3.json"), str(alloc),
        "--properties", "core,maxw", "--json", str(report_path), capsys=capsys,
    )
    assert code == 1
    doc = json.loads(report_path.read_text())
    assert doc["core"]["holds"] is False
    assert doc["core"]["witness"]["kind"] == "blocking-coalition"
    assert sorted(doc["core"]["witness"]["coalition"]) == ["1", "2"]
    assert doc["maxw"]["holds"] is True


def test_verify_unknown_property_is_input_error(tmp_path):
    alloc = write_allocation(tmp_path, FIXTURES / "e2.json", {"1": "h1", "2": "h2"})
    assert main(["verify", str(FIXTURES / "e2.json"), str(alloc),
                 "--properties", "ir,sparkle"]) == 2


def test_verify_budget_exceeded_is_exit_4(tmp_path):
    # 9 x 9 is past the welfare enumeration's fixed 8 x 8 limit
    src = tmp_path / "nine.json"
    assert main(["gen", "--agents", "9", "--houses", "9", "--endow-prob", "0.5",
                 "--accept-prob", "0.5", "--seed", "3", "--output", str(src)]) == 0
    agents = loads_instance(src.read_text()).agents
    alloc = write_allocation(tmp_path, src, dict.fromkeys(agents))
    assert main(["verify", str(src), str(alloc), "--properties", "maxw-ir"]) == 4


@pytest.mark.parametrize("value", ["2", "eight"])
def test_size_limits_ignore_the_environment(tmp_path, monkeypatch, capsys, value):
    # the oracles' limits are fixed: the variables that once overrode them
    # change neither the exit code nor a byte of output
    names = ("HOUSEALLOC_MAX_ALLOC_AGENTS", "HOUSEALLOC_MAX_ALLOC_HOUSES",
             "HOUSEALLOC_MAX_MISREPORT_HOUSES")
    alloc = write_allocation(
        tmp_path, FIXTURES / "e3.json",
        {"1": None, "2": None, "3": None, "4": None},
    )
    commands = (
        ["verify", str(FIXTURES / "e3.json"), str(alloc), "--properties", "maxw-ir"],
        ["report", "--trials", "1", "--out-dir", str(tmp_path / "cx")],
    )
    for name in names:
        monkeypatch.delenv(name, raising=False)
    unset = [run_cli(*argv, capsys=capsys) for argv in commands]
    for name in names:
        monkeypatch.setenv(name, value)
    assert [run_cli(*argv, capsys=capsys) for argv in commands] == unset
    assert [code for code, _, _ in unset] == [1, 0]


def test_run_output_passes_verify_for_guaranteed_properties(tmp_path, capsys):
    guarantees = {"msir": "sir,ir,core,maxw-sir", "mir": "ir,po,maxw,maxw-ir"}
    for fixture in ("e1", "e2", "e3"):
        for mech, props in guarantees.items():
            out = tmp_path / f"{fixture}_{mech}.json"
            assert main(["run", str(FIXTURES / f"{fixture}.json"),
                         "--mechanism", mech, "--output", str(out)]) == 0
            code, _, _ = run_cli(
                "verify", str(FIXTURES / f"{fixture}.json"), str(out),
                "--properties", props, capsys=capsys,
            )
            assert code == 0, (fixture, mech)


# ---------------------------------------------------------------------------
# gen


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--agents", "5", "--houses", "6", "--endow-prob", "0.8",
            "--accept-prob", "0.3", "--seed", "42"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    inst = loads_instance(a.read_text())
    assert inst.num_agents == 5 and inst.num_houses == 6


def test_gen_empty(tmp_path):
    out = tmp_path / "empty.json"
    assert main(["gen", "--agents", "0", "--houses", "0", "--endow-prob", "0",
                 "--accept-prob", "0", "--seed", "1", "--output", str(out)]) == 0
    assert json.loads(out.read_text()) == {"agents": [], "houses": []}


def test_gen_invalid_prob_is_input_error():
    assert main(["gen", "--agents", "2", "--houses", "2", "--endow-prob", "1.5",
                 "--accept-prob", "0.5", "--seed", "1"]) == 2


# ---------------------------------------------------------------------------
# report


def test_report_small_run(tmp_path, capsys):
    code, out, _ = run_cli(
        "report", "--trials", "40", "--seed", "11",
        "--max-agents", "4", "--max-houses", "4",
        "--out-dir", str(tmp_path / "cx"), capsys=capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("trials=40 seed=11")
    # theorem columns hold exactly
    table = {line.split()[0]: line.split()[1:3] for line in lines[2:9]}
    assert table["sir"][0] == "100.0%"
    assert table["ir"] == ["100.0%", "100.0%"]
    assert table["core"][0] == "100.0%"
    assert table["po"][1] == "100.0%"
    assert table["maxw-sir"][0] == "100.0%"
    assert table["maxw-ir"][1] == "100.0%"
    assert table["maxw"][1] == "100.0%"


def test_report_single_trial(tmp_path, capsys):
    code, out, _ = run_cli(
        "report", "--trials", "1", "--seed", "3",
        "--max-agents", "3", "--max-houses", "3",
        "--out-dir", str(tmp_path / "cx"), capsys=capsys,
    )
    assert code == 0
    assert "trials=1" in out


def test_report_counterexamples_feed_verify(tmp_path, capsys):
    cx_dir = tmp_path / "cx"
    code, out, _ = run_cli(
        "report", "--trials", "120", "--seed", "0",
        "--max-agents", "5", "--max-houses", "5",
        "--out-dir", str(cx_dir), capsys=capsys,
    )
    assert code == 0
    files = sorted(p.name for p in cx_dir.glob("*_instance.json"))
    assert files, "expected at least one counterexample"
    for inst_file in cx_dir.glob("*_instance.json"):
        stem = inst_file.name.replace("_instance.json", "")
        mech, prop = stem.split("_", 1)
        alloc_file = cx_dir / f"{stem}_allocation.json"
        code, vout, _ = run_cli(
            "verify", str(inst_file), str(alloc_file),
            "--properties", prop, capsys=capsys,
        )
        assert code == 1, stem
        assert f"{prop}: fails" in vout


def test_report_rerun_identical_output(tmp_path, capsys):
    outs = []
    for sub in ("x", "y"):
        code, out, _ = run_cli(
            "report", "--trials", "25", "--seed", "5",
            "--max-agents", "4", "--max-houses", "4",
            "--out-dir", str(tmp_path / sub), capsys=capsys,
        )
        assert code == 0
        outs.append(out.replace(str(tmp_path / sub), "OUT"))
    assert outs[0] == outs[1]


def test_report_budget_violation_is_exit_4(capsys):
    code, _, err = run_cli("report", "--trials", "1", "--max-agents", "9",
                           "--max-houses", "4", capsys=capsys)
    assert code == 4


@pytest.mark.parametrize("agents, houses, code", [(8, 8, 0), (9, 8, 4), (8, 9, 4)])
def test_report_size_limit_is_8x8(agents, houses, code, capsys, tmp_path):
    # the first trial of seed 0 is small, so the 8 x 8 report answers at once
    got, _, _ = run_cli("report", "--trials", "1", "--max-agents", str(agents),
                        "--max-houses", str(houses), "--out-dir", str(tmp_path), capsys=capsys)
    assert got == code


def test_report_sp_budget_check(capsys, tmp_path):
    # 7 houses are past the misreport sweep's fixed limit of 6
    code, _, _ = run_cli("report", "--trials", "1", "--max-agents", "4",
                         "--max-houses", "7", "--sp", "on",
                         "--out-dir", str(tmp_path), capsys=capsys)
    assert code == 4


def test_report_with_sp_column(tmp_path, capsys):
    code, out, _ = run_cli(
        "report", "--trials", "12", "--seed", "1",
        "--max-agents", "3", "--max-houses", "3", "--sp", "on",
        "--out-dir", str(tmp_path / "cx"), capsys=capsys,
    )
    assert code == 0
    assert any(line.startswith("sp") for line in out.splitlines())


def test_report_solves_once_per_trial_and_mechanism(monkeypatch, tmp_path, capsys):
    # the property checks and the misreport sweep share one solve
    calls = []
    solve = mechanisms.max_weight_perfect_matching

    def counting(rows):
        calls.append(rows)
        return solve(rows)

    monkeypatch.setattr(mechanisms, "max_weight_perfect_matching", counting)
    code, _, _ = run_cli("report", "--sp", "on", "--trials", "3", "--max-agents", "4",
                         "--max-houses", "4", "--out-dir", str(tmp_path / "cx"), capsys=capsys)
    assert code == 0
    assert len(calls) == 6

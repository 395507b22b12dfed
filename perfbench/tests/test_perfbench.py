"""Tests of the benchmark's own arithmetic and failure accounting.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402


def test_tail_is_the_sample_with_ten_beyond_it():
    samples = [float(v) for v in range(100, 0, -1)]
    assert harness.tail(samples) == (90.0, 90.0, 10)
    value, pct, beyond = harness.tail([float(v) for v in range(1, 26)])
    assert (value, pct, beyond) == (15.0, 60.0, 10)
    assert harness.tail([float(v) for v in range(1, 12)]) == (1.0, 100.0 / 11, 10)


def test_tail_without_ten_samples_beyond_is_the_maximum():
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert harness.tail([float(v) for v in range(10)]) == (9.0, 100.0, 0)


def _span(tr: tracing.Tracer, parent: int, name: str, start: float, end: float) -> int:
    sid = len(tr.start)
    tr.parent.append(parent)
    tr.name.append(tr.name_id(name))
    tr.op.append(0)
    tr.start.append(start)
    tr.end.append(end)
    return sid


def test_self_time_subtracts_direct_children_only():
    tr = tracing.Tracer()
    root = _span(tr, -1, "cli.main", 0.0, 10.0)
    run_ = _span(tr, root, "mechanisms.run", 1.0, 8.0)
    _span(tr, run_, "matching.solve", 2.0, 3.0)
    refine = _span(tr, run_, "mechanisms.refine", 3.0, 7.5)
    _span(tr, refine, "matching.solve", 4.0, 6.0)
    _span(tr, root, "fileio.dump", 8.5, 9.0)
    own = tracing.self_times(tr.parent, tr.start, tr.end)
    assert own == [2.5, 1.5, 1.0, 2.5, 2.0, 0.5]
    stats, inside = tracing.summarize(tr, (("matching.solve", "mechanisms.refine"),))
    assert stats["matching.solve"]["calls"] == 2
    assert stats["matching.solve"]["busy_s"] == 3.0
    assert stats["mechanisms.refine"]["self_s"] == 2.5
    assert inside[("matching.solve", "mechanisms.refine")] == 1
    assert sum(e["self_s"] for e in stats.values()) == 10.0


def test_busy_time_counts_a_group_nested_in_itself_once():
    tr = tracing.Tracer()
    outer = _span(tr, -1, "oracles.maxw", 0.0, 4.0)
    _span(tr, outer, "oracles.maxw", 1.0, 3.0)
    stats, _ = tracing.summarize(tr)
    assert stats["oracles.maxw"] == {
        "calls": 2, "outer_calls": 1, "busy_s": 4.0, "self_s": 4.0,
    }


def test_missing_functions_are_absent_and_wrappers_come_off(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    matching = types.ModuleType("fakepkg.matching")
    mechanisms = types.ModuleType("fakepkg.mechanisms")

    def max_weight_perfect_matching(graph):
        return graph * 2

    matching.max_weight_perfect_matching = max_weight_perfect_matching
    mechanisms.max_weight_perfect_matching = max_weight_perfect_matching
    for mod in (pkg, matching, mechanisms):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    tr = tracing.Tracer()
    tr.prepare("fakepkg")
    assert "mechanisms.run_mechanism" in tr.absent
    assert "matching.max_weight_perfect_matching" not in tr.absent
    tr.install()
    assert mechanisms.max_weight_perfect_matching(21) == 42
    assert matching.max_weight_perfect_matching is not max_weight_perfect_matching
    tr.uninstall()
    assert mechanisms.max_weight_perfect_matching is max_weight_perfect_matching
    stats, _ = tracing.summarize(tr)
    assert stats["matching.solve"]["calls"] == 1


def test_schedule_visits_every_bin_once_per_cycle():
    pool = {"variants": 2, "ops": [{"cost_s": c} for c in (5, 1, 4, 2, 3, 6, 8, 7)]}
    groups = harness.bins(pool)
    assert groups == [[1, 3], [4, 2], [0, 5], [7, 6]]
    first = harness.Schedule(pool, seed=7)
    again = harness.Schedule(pool, seed=7)
    picks = [first[i] for i in range(8)]
    assert picks == [again[i] for i in range(8)]
    bin_of = {i: b for b, group in enumerate(groups) for i in group}
    for cycle in (picks[:4], picks[4:]):
        assert sorted(bin_of[i] for i in cycle) == [0, 1, 2, 3]


@pytest.fixture
def tiny_pool(tmp_path):
    """A one-op pool recorded from the program itself."""
    run.prepare_environment()
    pool = {
        "variants": 1,
        "setup": [{
            "argv": ["gen", "--agents", "4", "--houses", "4", "--endow-prob", "0.5",
                     "--accept-prob", "0.5", "--seed", "3", "--output", "in/i.json"],
            "file": "in/i.json",
        }],
        "ops": [{
            "id": "tiny-msir",
            "argv": ["run", "in/i.json", "--mechanism", "msir",
                     "--output", "out/allocation.json"],
            "mechanism": "msir",
            "cost_s": 0.0,
        }],
    }
    cwd = os.getcwd()
    work = tmp_path / "work"
    work.mkdir()
    os.chdir(work)
    try:
        cli = harness.fresh_import()
        Path("in").mkdir()
        cli.main(pool["setup"][0]["argv"])
        pool["setup"][0]["sha256"] = harness.sha256(Path("in/i.json").read_bytes())
        pool["ops"][0]["expect"] = harness.expectation(
            harness.run_cli(cli, pool["ops"][0]["argv"])
        )
    finally:
        os.chdir(cwd)
    yield pool, work
    os.chdir(cwd)


def test_identical_output_passes(tiny_pool):
    pool, work = tiny_pool
    cli, _, bad = run.set_up(pool, work)
    records = run.timed_loop(pool, cli, seed=1, seconds=1e-9, bad_inputs=bad)
    assert [r["problems"] for r in records] == [[]]


def test_one_altered_output_byte_fails_the_op(tiny_pool, monkeypatch):
    pool, work = tiny_pool
    cli, _, bad = run.set_up(pool, work)
    original = cli.fileio.dumps_allocation

    def altered(*args, **kwargs):
        # Still valid JSON, so only the byte comparison can catch it.
        return original(*args, **kwargs)[:-1] + " "

    monkeypatch.setattr(cli.fileio, "dumps_allocation", altered)
    records = run.timed_loop(pool, cli, seed=1, seconds=1e-9, bad_inputs=bad)
    assert records[0]["problems"] == ["out/allocation.json bytes differ"]


def test_oracle_check_rejects_an_output_the_mechanism_cannot_give(tmp_path, monkeypatch):
    # a1 owns h1 but wants nothing, a2 owns nothing and wants h1: MIR gives
    # h1 to a2 and nothing to a1, which breaks strong individual rationality.
    run.prepare_environment()
    monkeypatch.chdir(tmp_path)
    cli = harness.fresh_import()
    Path("in.json").write_text(
        '{"agents": [{"id": "a1", "endowment": "h1", "acceptable": []},'
        ' {"id": "a2", "endowment": null, "acceptable": ["h1"]}], "houses": ["h1"]}'
    )
    argv = ["run", "in.json", "--mechanism", "mir", "--output", "out/allocation.json"]
    outcome = harness.run_cli(cli, argv)
    assert checks.check_run(checks.Inputs(), argv, outcome.files) == []
    argv[3] = "msir"
    assert checks.check_run(checks.Inputs(), argv, outcome.files) == ["MSIR output violates S-IR"]

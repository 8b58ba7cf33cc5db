"""tools/bench_collate.py on synthetic perfbench result files."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench_collate.py")
_spec = importlib.util.spec_from_file_location("bench_collate", _PATH)
bench_collate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_collate)


def write_run(directory, workload, seed, round_s, correct=True, failed=0):
    """One perfbench result file; setup_s and peak_rss_mb follow round_s."""
    directory.mkdir(exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "seconds": 20.0, "correct": correct,
        "failed": failed, "nproc": 2, "git_sha": directory.name,
        "versions": {"python": "3.11.7"},
        "metrics": {"round_s": {"value": round_s, "unit": "s"},
                    "setup_s": {"value": 2.0 * round_s, "unit": "s"},
                    "peak_rss_mb": {"value": 100.0 + round_s, "unit": "MB"}},
    }
    path = directory / f"result-{workload}-seed{seed}-trace0.json"
    path.write_text(json.dumps(record), encoding="utf-8")


def collate(tmp_path, capsys):
    assert bench_collate.main(["--pr", "7", "--parent", str(tmp_path / "parent"),
                               "--change", str(tmp_path / "change")]) == 0
    return json.loads(capsys.readouterr().out)


def test_medians_and_quartiles(tmp_path, capsys):
    for seed, value in zip(range(1, 6), [5.0, 1.0, 4.0, 2.0, 3.0]):
        write_run(tmp_path / "parent", "w", seed, value)
        write_run(tmp_path / "change", "w", seed, value - 0.5)
    out = collate(tmp_path, capsys)
    # inclusive quartiles of 1..5 are 2, 3 and 4
    assert out["parent"]["workloads"]["w"]["round_s"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert out["parent"]["workloads"]["w"]["setup_s"] == {"median": 6.0, "q1": 4.0, "q3": 8.0}
    assert out["change"]["workloads"]["w"]["round_s"] == {"median": 2.5, "q1": 1.5, "q3": 3.5}
    pair = out["pairs"]["w"]
    assert pair["seeds"] == [1, 2, 3, 4, 5]
    assert pair["round_s"] == {"change_better": 5, "parent_better": 0,
                               "delta_median": pytest.approx(2.5 / 3.0 - 1.0)}
    assert out["parent"]["git_sha"] == ["parent"] and out["parent"]["nproc"] == [2]


def test_single_run_is_its_own_spread(tmp_path, capsys):
    write_run(tmp_path / "parent", "w", 1, 0.7)
    write_run(tmp_path / "change", "w", 1, 0.6)
    out = collate(tmp_path, capsys)
    assert out["parent"]["workloads"]["w"]["round_s"] == {"median": 0.7, "q1": 0.7, "q3": 0.7}
    assert out["pairs"]["w"]["round_s"]["change_better"] == 1


def test_ties_count_for_neither_side(tmp_path, capsys):
    for seed, (parent, change) in enumerate([(1.0, 1.0), (2.0, 2.0), (3.0, 2.5)]):
        write_run(tmp_path / "parent", "w", seed, parent)
        write_run(tmp_path / "change", "w", seed, change)
    pair = collate(tmp_path, capsys)["pairs"]["w"]
    for m in bench_collate.METRICS:
        assert (pair[m]["change_better"], pair[m]["parent_better"]) == (1, 0)


def test_failed_runs_are_listed_and_left_out(tmp_path, capsys):
    for seed in (1, 2, 3):
        write_run(tmp_path / "parent", "w", seed, float(seed))
    write_run(tmp_path / "change", "w", 1, 0.5)
    write_run(tmp_path / "change", "w", 2, 100.0, correct=False)
    write_run(tmp_path / "change", "w", 3, 100.0, failed=1)
    out = collate(tmp_path, capsys)
    assert out["change"]["failed_checks"] == ["w seed 2", "w seed 3"]
    assert out["change"]["workloads"]["w"]["seeds"] == [1]
    assert out["change"]["workloads"]["w"]["round_s"]["median"] == 0.5
    assert out["parent"]["failed_checks"] == []
    assert out["pairs"]["w"]["seeds"] == [1]


def test_all_failed_workload_gets_no_figures(tmp_path, capsys):
    # no good run on one side: listed, with no spread and no pairs to take
    for seed in (1, 2):
        write_run(tmp_path / "parent", "bad", seed, 1.0)
        write_run(tmp_path / "change", "bad", seed, 1.0, correct=False)
        write_run(tmp_path / "parent", "good", seed, 1.0)
        write_run(tmp_path / "change", "good", seed, 0.9)
    out = collate(tmp_path, capsys)
    assert out["change"]["failed_checks"] == ["bad seed 1", "bad seed 2"]
    assert set(out["change"]["workloads"]) == {"good"}
    assert set(out["parent"]["workloads"]) == {"bad", "good"}
    assert set(out["pairs"]) == {"good"}

"""scripts/bench_pairs.py: the paired summary of canned benchmark results."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DECLARED = [
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
]


def runs(**columns):
    """Per-pair metric dicts from one list of values per metric."""
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


@pytest.fixture
def summary():
    ref = runs(
        latency_p50_ms=[7.0, 7.2, 7.4, 7.6, 7.8],
        ops_per_s=[100.0] * 5,
        peak_rss_mb=[40.0] * 5,
    )
    new = runs(
        latency_p50_ms=[6.0, 7.2, 6.4, 6.6, 6.8],  # the second pair is a tie
        ops_per_s=[90.0, 110.0, 100.0, 80.0, 70.0],
        peak_rss_mb=[42.4] * 5,
    )
    return bench_pairs.summarize(ref, new, DECLARED)


def test_lower_is_better(summary):
    row = summary["latency_p50_ms"]
    assert row["ref"] == pytest.approx([7.2, 7.4, 7.6])
    assert row["new"] == pytest.approx([6.4, 6.6, 6.8])
    assert row["wins"] == 4  # ties count for neither side
    assert row["change"] == pytest.approx((6.6 - 7.4) / 7.4)
    assert row["within_bound"]
    assert row["clears_ref_iqr"]  # a gain of 0.8 against an IQR of 0.4


def test_higher_is_better(summary):
    row = summary["ops_per_s"]
    assert row["new"] == pytest.approx([80.0, 90.0, 100.0])
    assert row["wins"] == 1
    assert row["change"] == pytest.approx(-0.1)
    assert row["within_bound"]  # 10% worse against a 25% bound
    assert not row["clears_ref_iqr"]  # worse, though the parent's IQR is 0


def test_worse_than_its_bound(summary):
    row = summary["peak_rss_mb"]
    assert row["wins"] == 0
    assert row["change"] == pytest.approx(0.06)
    assert not row["within_bound"]
    assert not row["clears_ref_iqr"]


def test_one_pair():
    row = bench_pairs.summarize(
        runs(latency_p50_ms=[2.0]), runs(latency_p50_ms=[1.0]), DECLARED[:1]
    )["latency_p50_ms"]
    assert row["ref"] == [2.0, 2.0, 2.0]
    assert row["wins"] == 1 and row["clears_ref_iqr"]


def test_unknown_ref_is_a_git_error(capsys):
    assert bench_pairs.main(["no-such-ref", "--workload", "mc_study", "--pairs", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: git rev-parse failed")


def test_needs_a_pair():
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["HEAD", "--workload", "mc_study", "--pairs", "0"])
    assert exc.value.code == 2

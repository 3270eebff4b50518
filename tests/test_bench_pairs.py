"""scripts/bench_pairs.py: the paired summary and the --write record of canned benchmark results."""

import json
import subprocess
from pathlib import Path

import bench_pairs
import pytest

ROOT = Path(__file__).resolve().parents[1]

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


def test_one_pair_has_no_interval():
    row = bench_pairs.summarize(
        runs(latency_p50_ms=[2.0]), runs(latency_p50_ms=[1.5]), DECLARED[:1]
    )["latency_p50_ms"]
    assert row["per_pair"] == [[2.0, 1.5]]
    assert row["paired_change"] == pytest.approx(-0.25)
    assert row["paired_interval"] is None and row["paired_coverage"] is None


@pytest.mark.parametrize(
    "pairs, expected",
    [(1, None), (5, None), (6, (1, 31 / 32)), (10, (2, 1 - 22 / 1024)), (12, (3, 1 - 158 / 4096))],
)
def test_sign_interval(pairs, expected):
    # coverage 1 - 2 P(Bin(pairs, 1/2) < k) at the largest k that reaches 95 %
    assert bench_pairs.sign_interval(pairs) == expected


def test_paired_interval_covers_a_known_shift():
    # every pair's ratio is a 5 % shift times a small symmetric jitter; the
    # runs drift by 30 % across pairs, more than the shift
    jitter = [1.0, 1.01, 0.99, 1.02, 0.98, 1.005, 0.995, 1.015, 0.985, 1.0]
    ref_p50 = [2.0 + 0.06 * i for i in range(10)]
    ref_ops = [100.0 - 3 * i for i in range(10)]
    summary = bench_pairs.summarize(
        runs(latency_p50_ms=ref_p50, ops_per_s=ref_ops),
        runs(
            latency_p50_ms=[0.95 * r * j for r, j in zip(ref_p50, jitter)],
            ops_per_s=[1.05 * r / j for r, j in zip(ref_ops, jitter)],
        ),
        DECLARED[:2],
    )
    for name, shift in (("latency_p50_ms", -0.05), ("ops_per_s", 0.05)):
        row = summary[name]
        assert row["paired_change"] == pytest.approx(shift, abs=1e-12)
        low, high = row["paired_interval"]
        assert low < shift < high and not low <= 0.0 <= high
        assert row["paired_coverage"] == pytest.approx(0.9785, abs=1e-4)
        # the unpaired medians' gap does not clear REF's spread
        assert not row["clears_ref_iqr"]


def test_paired_change_needs_positive_values():
    row = bench_pairs.summarize(
        runs(latency_p50_ms=[0.0] * 6), runs(latency_p50_ms=[1.0] * 6), DECLARED[:1]
    )["latency_p50_ms"]
    assert row["per_pair"] == [[0.0, 1.0]] * 6
    assert row["paired_change"] is row["paired_interval"] is row["paired_coverage"] is None


def test_unknown_ref_is_a_git_error(capsys):
    assert bench_pairs.main(["no-such-ref", "--workload", "mc_study", "--pairs", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: git rev-parse failed")


def test_needs_a_pair():
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["HEAD", "--workload", "mc_study", "--pairs", "0"])
    assert exc.value.code == 2


@pytest.fixture
def canned_runs(monkeypatch):
    """Replace the benchmark runs by canned metrics: the checkout's p50 is 10% lower."""
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []

    def run(tree, workload, seed, seconds):
        calls.append((tree, workload, seed))
        values = dict.fromkeys(metrics + [m["name"] for m in bench_pairs.RAW], 1.0)
        values["latency_p50_ms"] = (1.8 if tree == bench_pairs.ROOT else 2.0) + seed / 100
        values["raw_latency_p50_ms"] = 2 * values["latency_p50_ms"]
        return values

    monkeypatch.setattr(bench_pairs, "_run", run)
    return calls


def test_write_merges_workloads_into_one_record(canned_runs, tmp_path, capsys):
    path = tmp_path / "BENCH.json"
    for workload, pairs in (("mc_study", 3), ("sweep", 2), ("mc_study", 4)):
        argv = ["HEAD", "--workload", workload, "--pairs", str(pairs), "--write", str(path)]
        assert bench_pairs.main(argv) == 0
    capsys.readouterr()
    record = json.loads(path.read_text())
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=True).stdout.strip()
    assert record["ref"] == {"name": "HEAD", "commit": head}
    assert record["new"]["commit"] == head and isinstance(record["new"]["modified"], bool)
    assert set(record["host"]) == {"cpus", "python", "numpy", "PYTHONDONTWRITEBYTECODE", "fs"}
    assert list(record["workloads"]) == ["mc_study", "sweep"]
    entry = record["workloads"]["mc_study"]  # the second mc_study run replaced the first
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert (entry["pairs"], entry["seeds"], entry["run_seconds"]) == (4, [1, 4], run_seconds)
    p50 = entry["metrics"]["latency_p50_ms"]
    assert p50["wins"] == 4 and p50["within_bound"] and p50["clears_ref_iqr"]
    assert p50["ref"] == pytest.approx([2.0175, 2.025, 2.0325])
    assert p50["change"] == pytest.approx(-0.2 / 2.025)
    assert set(p50) == {
        "ref", "new", "wins", "change", "within_bound", "clears_ref_iqr",
        "per_pair", "paired_change", "paired_interval", "paired_coverage",
    }
    assert [len(pair) for pair in p50["per_pair"]] == [2] * 4
    assert sum(p50["per_pair"], []) == pytest.approx([2.01, 1.81, 2.02, 1.82, 2.03, 1.83, 2.04, 1.84])
    assert p50["paired_interval"] is None and p50["paired_coverage"] is None  # 4 pairs
    assert list(entry["raw"]) == ["ops", "raw_latency_p50_ms", "raw_latency_tail_ms", "raw_setup_s"]
    raw_p50 = entry["raw"]["raw_latency_p50_ms"]
    assert raw_p50["ref"] == pytest.approx([4.035, 4.05, 4.065])
    assert raw_p50["wins"] == 4 and raw_p50["within_bound"] is None  # raw figures have no bound
    assert entry["raw"]["ops"]["wins"] == 0  # ties


def test_ref_is_extracted_under_the_checkout(canned_runs, capsys):
    # so that both trees' perfbench temp dirs are on one filesystem
    assert bench_pairs.main(["HEAD", "--workload", "sweep", "--pairs", "2"]) == 0
    trees = [tree for tree, _, _ in canned_runs]
    assert trees[1] == trees[2] == bench_pairs.ROOT  # REF runs first in even pairs only
    ref = trees[0]
    assert trees[3] == ref and ref.parent == bench_pairs.ROOT
    assert ref.name.startswith(".bench-pairs-") and not ref.exists()


MOUNTS = """\
/dev/vda / ext4 rw,relatime,discard 0 0
tmpfs /tmp tmpfs rw,nosuid,nodev 0 0
/dev/vdb /srv/data ext4 ro,relatime 0 0
/dev/vdc /srv/data xfs rw,noatime 0 0
/dev/vdd /srv/my\\040disk btrfs rw,ssd 0 0
"""


@pytest.mark.parametrize(
    "path, expected",
    [
        ("/home/repo", {"type": "ext4", "options": "rw,relatime,discard"}),
        ("/tmp/bench-pairs-1", {"type": "tmpfs", "options": "rw,nosuid,nodev"}),
        ("/tmpx", {"type": "ext4", "options": "rw,relatime,discard"}),  # not under /tmp
        ("/srv/data/repo", {"type": "xfs", "options": "rw,noatime"}),  # mounted over the ext4
        ("/srv/my disk/repo", {"type": "btrfs", "options": "rw,ssd"}),  # \040 is a space
    ],
)
def test_filesystem_is_the_longest_mount_point_prefix(path, expected):
    assert bench_pairs.filesystem(Path(path), MOUNTS) == expected


def test_filesystem_is_none_without_a_mount():
    assert bench_pairs.filesystem(Path("/home/repo"), "") is None
    assert bench_pairs.filesystem(Path("/home/repo"), MOUNTS.replace(" / ", " /boot ")) is None


def test_summary_line_holds_the_written_entry(canned_runs, tmp_path, capsys):
    path = tmp_path / "BENCH.json"
    argv = ["HEAD", "--workload", "sweep", "--pairs", "2", "--write", str(path)]
    assert bench_pairs.main(argv) == 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    record = json.loads(path.read_text())
    assert line == {
        "ref": "HEAD", "commit": record["ref"]["commit"], "workload": "sweep",
        **record["workloads"]["sweep"],
    }


def test_write_refuses_another_comparison_before_any_run(canned_runs, tmp_path, capsys):
    path = tmp_path / "BENCH.json"
    text = json.dumps({"ref": {"name": "HEAD", "commit": "0" * 40}, "workloads": {}})
    path.write_text(text)
    argv = ["HEAD", "--workload", "sweep", "--pairs", "1", "--write", str(path)]
    assert bench_pairs.main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path} records another comparison (its ref, new, host differ)\n"
    assert canned_runs == [] and path.read_text() == text


def test_write_refuses_a_missing_directory_before_any_run(canned_runs, tmp_path, capsys):
    path = tmp_path / "missing" / "BENCH.json"
    argv = ["HEAD", "--workload", "sweep", "--pairs", "1", "--write", str(path)]
    assert bench_pairs.main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {path}: {path.parent} is not a directory\n"
    assert canned_runs == [] and not path.parent.exists()


def fake_run_py(tree: Path, *lines):
    """A perfbench/run.py under tree that prints lines."""
    (tree / "perfbench").mkdir()
    (tree / "perfbench" / "run.py").write_text(
        "".join(f"print({line!r})\n" for line in lines)
    )


def test_run_reads_the_info_line(tmp_path):
    info = {"ops": 120, "raw_latency_p50_ms": 5.5, "raw_latency_tail_ms": 9.0,
            "raw_setup_s": 0.4, "slowness_p50": 1.2}
    fake_run_py(
        tmp_path, 'env {"seed": 1}', "info " + json.dumps(info), "  ops_per_s  3.5 1/s",
        json.dumps({"correct": True, "metrics": {"ops_per_s": {"value": 3.5, "unit": "1/s"}}}),
    )
    assert bench_pairs._run(tmp_path, "sweep", 1, 1.0) == {
        "ops_per_s": 3.5, "ops": 120, "raw_latency_p50_ms": 5.5, "raw_latency_tail_ms": 9.0,
        "raw_setup_s": 0.4,
    }


def test_run_without_info_figures_has_no_metrics(tmp_path):
    fake_run_py(tmp_path, "info {}", json.dumps({"metrics": {}}))
    with pytest.raises(RuntimeError, match="without metrics"):
        bench_pairs._run(tmp_path, "sweep", 1, 1.0)

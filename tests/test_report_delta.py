"""The report-delta gate (tools/report_delta.py): a tree compared with itself shows no delta."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "report_delta.py"


def test_report_delta_of_this_tree_against_itself_is_zero(tmp_path):
    summary_path = tmp_path / "summary.json"
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--stages", "foliate,momentum", "--band-limit", "8",
         "--exempt", "residual", "--keep", str(tmp_path / "runs"), "--json", str(summary_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    summary = json.loads(summary_path.read_text())
    assert sorted(summary) == ["foliate", "momentum"]
    for stage, row in summary.items():
        assert row["worst_delta"] == 0.0, (stage, row)
        assert row["mismatches"] == [], (stage, row)
        assert row["status"] == ["ok", "ok"]
        assert row["csv_identical"]
        assert row["fields"] and set(row["fields"].values()) == {0.0}
    assert "/reports/foliate/leaves/*/residual" in summary["foliate"]["fields"]
    # the kept manifests are a valid side of a later comparison
    kept = tmp_path / "runs" / "old"
    again = subprocess.run(
        [sys.executable, str(TOOL), str(kept), str(ROOT), "--stages", "foliate", "--band-limit", "8"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert again.returncode == 0, again.stdout + again.stderr
    assert "foliate     worst 0.000e+00" in again.stdout


def test_report_delta_names_changed_floats_and_integers():
    sys.path.insert(0, str(TOOL.parent))
    try:
        from report_delta import compare
    finally:
        sys.path.pop(0)
    old = {"reports": {"leaves": [{"x": 2.0, "n": 3}, {"x": -4.0, "n": 5}]}, "timings": {"a": 1.0}}
    new = {"reports": {"leaves": [{"x": 2.0, "n": 3}, {"x": -3.0, "n": 4, "extra": True}]}, "timings": {"a": 2.0}}
    row = compare(old, new)
    assert row["worst_delta"] == 0.25  # |(-3) - (-4)| / max|x| over the field
    assert row["worst_path"] == "/reports/leaves/1/x"
    assert row["mismatches"] == ["/reports/leaves/1/n: 5 -> 4", "/reports/leaves/*/extra: only in new (1 values)"]
    assert row["fields"] == {"/reports/leaves/*/x": 0.25}


def test_report_delta_exempt_fields_leave_the_worst_value():
    """An exempt field keeps its own worst value under ``fields`` and stays out of the stage's worst."""
    sys.path.insert(0, str(TOOL.parent))
    try:
        from report_delta import compare
    finally:
        sys.path.pop(0)
    old = {"reports": {"leaves": [{"residual": 1e-11, "center": [4.0, 2.0], "history": [1.0, 1e-6]}]}}
    new = {"reports": {"leaves": [{"residual": 3e-11, "center": [4.0, 2.000001], "history": [1.0, 2e-6, 1e-12]}]}}
    row = compare(old, new, exempt=["residual", "history"])
    assert row["worst_delta"] == (2.000001 - 2.0) / 4.0
    assert row["worst_path"] == "/reports/leaves/0/center/1"
    assert row["fields"] == {
        "/reports/leaves/*/residual": (3e-11 - 1e-11) / 1e-11,
        "/reports/leaves/*/center/*": (2.000001 - 2.0) / 4.0,
        "/reports/leaves/*/history/*": 1e-6,
    }
    # integers and lengths still mismatch, exempt or not
    assert row["mismatches"] == [
        "/reports/leaves/0/history/{len}: 2 -> 3",
        "/reports/leaves/*/history/*: only in new (1 values)",
    ]
    assert compare(old, new)["worst_path"] == "/reports/leaves/0/residual"

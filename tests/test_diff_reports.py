"""scripts/diff_reports.py: suite reports compared apart from wall_time_ms."""

import json
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "diff_reports.py"


def _write(directory, name, payload):
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(json.dumps(payload), encoding="utf-8")


def _run(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)], capture_output=True, text=True)


def test_reports_equal_apart_from_wall_time(tmp_path):
    report = {"suite": "main", "groups": [{"label": "Z2", "stats": {"wall_time_ms": 1.5, "n": 3}}]}
    _write(tmp_path / "a", "main.json", report)
    report["groups"][0]["stats"]["wall_time_ms"] = 9.25
    _write(tmp_path / "b", "main.json", report)
    done = _run(tmp_path / "a", tmp_path / "b")
    assert done.returncode == 0, done.stdout
    assert "1 of 1 reports identical" in done.stdout


def test_reports_differ_at_first_path(tmp_path):
    _write(tmp_path / "a", "cis.json", {"groups": [{"n": 3, "ok": True}, {"n": 4}]})
    _write(tmp_path / "b", "cis.json", {"groups": [{"n": 3, "ok": False}, {"n": 5}]})
    _write(tmp_path / "a", "main.json", {"ok": True})
    done = _run(tmp_path / "a", tmp_path / "b")
    assert done.returncode == 1
    assert "cis.json: differs at $.groups[0].ok" in done.stdout
    assert "main.json: only in" in done.stdout

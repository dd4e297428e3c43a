"""scripts/diff_reports.py: reports compared apart from wall_time_ms; and
scripts/cli_reports.py, which writes the command reports it compares."""

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


def test_cli_reports_write_every_case(tmp_path):
    """scripts/cli_reports.py writes one JSON per command."""
    done = subprocess.run([sys.executable, str(SCRIPT.parent / "cli_reports.py"), str(tmp_path)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "wrote 27 of 27 reports" in done.stdout
    assert len(list(tmp_path.glob("*.json"))) == 27
    d8 = [json.loads((tmp_path / f"check-D8-cis-witness-limit-60-threads-{t}.json").read_text())
          for t in (1, 2)]
    for d in d8:
        d["stats"].pop("wall_time_ms")
    assert d8[0] == d8[1] and d8[0]["stats"]["property_violations"] == 60
    d4 = json.loads((tmp_path / "check-D4-cayley-integral-witness-limit-3-threads-2.json").read_text())
    assert (d4["group"], d4["holds"], len(d4["witnesses"])) == ("D4", False, 3)
    z7 = json.loads((tmp_path / "spectrum-Z7-0x42.json").read_text())
    assert (z7["subset"], z7["verdict"]["integral"]) == (["1", "6"], False)

"""Verification suites and the command-line front end."""

import importlib.util
import json
import pathlib
import sys

import pytest

from cayley_spectra import __version__, cli, integrality, intlinalg
from cayley_spectra.catalog import build_cached
from cayley_spectra.search import exhaustive_scan
from cayley_spectra.suites import SUITE_NAMES, clear_memos, run_suite


def _strip_times(obj):
    if isinstance(obj, dict):
        return {k: _strip_times(v) for k, v in obj.items() if k != "wall_time_ms"}
    if isinstance(obj, list):
        return [_strip_times(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def test_suite_names():
    assert set(SUITE_NAMES) == {
        "ab", "cis", "ks", "main", "bounds", "lifts", "ds", "s4-transitive",
    }


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_report_json_roundtrip(suite_report):
    rep = suite_report("cis")
    d = rep.to_json_dict()
    assert d["schema"] == 1 and d["version"] == __version__
    assert d["suite"] == "cis" and d["ok"] is True
    text = rep.to_json()
    assert text.endswith("\n")
    assert json.loads(text) == d
    assert rep.human_summary().splitlines()[0] == "suite cis: PASS"


def test_ds_suite_deterministic_modulo_timing():
    first = run_suite("ds").to_json_dict()
    clear_memos()
    second = run_suite("ds").to_json_dict()
    assert _strip_times(first) == _strip_times(second)


def test_cis_report_independent_of_threads():
    """The witnesses merged across workers match a single-process run."""
    clear_memos()
    two = run_suite("cis", threads=2).to_json_dict()
    clear_memos()
    one = run_suite("cis", threads=1).to_json_dict()
    assert two.pop("config") == {"threads": 2, "reduce": True}
    assert one.pop("config") == {"threads": 1, "reduce": True}
    assert _strip_times(two) == _strip_times(one)


def test_lifts_report_structure(suite_report):
    rep = suite_report("lifts")
    assert rep.ok
    for chk in rep.checks:
        assert chk["detail"]["seed"] == 20250819
        assert chk["detail"]["instances"] == 200
        assert chk["detail"]["failed_instances"] == []
    names = {c["name"] for c in rep.checks}
    assert names == {
        "lift_from_subgroup",
        "lift_from_quotient",
        "lift_preimage",
        "union_product_subset",
    }


def test_s4_report_structure(suite_report):
    rep = suite_report("s4-transitive")
    assert rep.ok
    names = {c["name"] for c in rep.checks}
    assert "subgroup_enumeration_complete" in names
    assert "integral_transitive_implies_order_4" in names


# ---------------------------------------------------------------------------
# cli: spectrum
# ---------------------------------------------------------------------------


def test_spectrum_cube(capsys, tmp_path):
    out_json = tmp_path / "cube.json"
    rc = cli.main(["spectrum", "Z2^3", "e1,e2,e3", "--json", str(out_json)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Integral {3:1, 1:3, -1:3, -3:1}" in out
    payload = json.loads(out_json.read_text())
    assert payload["schema"] == 1
    assert payload["group"] == "Z2^3"
    assert payload["verdict"]["integral"] is True
    assert payload["verdict"]["spectrum"] == {"3": 1, "1": 3, "-1": 3, "-3": 1}


def test_spectrum_nonintegral_evidence(capsys, tmp_path):
    out_json = tmp_path / "d4.json"
    rc = cli.main(["spectrum", "D4", "x,xy", "--json", str(out_json)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "NonIntegral" in out
    assert "1.414213562" in out
    payload = json.loads(out_json.read_text())
    assert payload["verdict"]["integral"] is False
    assert payload["subset"] == ["x", "xy"]
    assert bin(int(payload["bits"], 16)).count("1") == 2


def test_spectrum_hex_and_empty_subsets(capsys):
    rc = cli.main(["spectrum", "Z4", "0xa"])
    out = capsys.readouterr().out
    assert rc == 0 and "Integral {2:1, 0:2, -2:1}" in out
    rc = cli.main(["spectrum", "Z1", ""])
    out = capsys.readouterr().out
    assert rc == 0 and "Integral {0:1}" in out


def test_spectrum_stdout_json_when_no_file(capsys):
    rc = cli.main(["spectrum", "Z6", "1,5"])
    out = capsys.readouterr().out
    assert rc == 0
    tail = out[out.index("{\n"):]
    payload = json.loads(tail)
    assert payload["subset"] == ["1", "5"]


# ---------------------------------------------------------------------------
# cli: check
# ---------------------------------------------------------------------------


def test_check_true_group(capsys):
    rc = cli.main(["check", "Dic12", "cayley-integral", "--threads", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["holds"] is True and payload["witnesses"] == []


def test_check_false_group_reports_witness(capsys):
    rc = cli.main(["check", "SL2_3", "cayley-integral", "--threads", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["holds"] is False
    assert len(payload["witnesses"]) == 1
    assert payload["witnesses"][0]["kind"] == "nonintegral"


def test_check_witness_limit(capsys):
    rc = cli.main(
        ["check", "D4", "cayley-integral", "--threads", "1", "--witness-limit", "3"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0 and len(payload["witnesses"]) == 3


def test_check_cis_predicate(capsys):
    rc = cli.main(["check", "Z9", "cis", "--threads", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0 and payload["holds"] is True


def test_check_cap_exit_code(capsys):
    rc = cli.main(["check", "Z2^6", "cayley-integral", "--threads", "1"])
    err = capsys.readouterr().err
    assert rc == 4 and "error" in err


# ---------------------------------------------------------------------------
# cli: verify
# ---------------------------------------------------------------------------


def test_verify_cli_writes_report(capsys, tmp_path):
    out_json = tmp_path / "cis.json"
    rc = cli.main(["verify", "cis", "--threads", "1", "--json", str(out_json)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "suite cis: PASS"
    payload = json.loads(out_json.read_text())
    assert payload["suite"] == "cis" and payload["ok"] is True


def test_verify_exit_one_on_mismatch(capsys, monkeypatch):
    class FakeReport:
        ok = False

        def human_summary(self):
            return "suite fake: FAIL"

        def to_json(self):
            return "{}\n"

    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: FakeReport())
    rc = cli.main(["verify", "ds"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# cli: catalog, errors, misc
# ---------------------------------------------------------------------------


def test_catalog_list_all(capsys):
    rc = cli.main(["catalog", "list"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0 and len(lines) == 24


def test_catalog_list_one_order(capsys, tmp_path):
    out_json = tmp_path / "o8.json"
    rc = cli.main(["catalog", "list", "--order", "8", "--json", str(out_json)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0 and len(lines) == 5
    assert all("order 8" in ln for ln in lines)
    payload = json.loads(out_json.read_text())
    assert [g["expr"] for g in payload["groups"]] == [
        "Z8", "Z4xZ2", "Z2^3", "D4", "Q8",
    ]


def test_catalog_show_table(capsys):
    rc = cli.main(["catalog", "show", "Q8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "order 8" in out and "non-abelian" in out
    assert "-k" in out


def test_catalog_show_requires_expr(capsys):
    rc = cli.main(["catalog", "show"])
    assert rc == 2


@pytest.mark.parametrize(
    "argv,code",
    [
        (["spectrum", "Z0", ""], 2),
        (["spectrum", "Z128", ""], 7),
        (["spectrum", "Wat5", ""], 2),
        (["spectrum", "Z4", "nope"], 2),
        (["spectrum", "Z4", "1"], 3),
        (["spectrum", "Z4", "0,2"], 3),
        (["spectrum", "Z4", "0x2"], 3),
        (["spectrum", "Z4", "", "--json", "{tmp}/missing/out.json"], 6),
        (["check", "Z2", "cis", "--checkpoint", "{tmp}"], 6),
        (["check", "Z2", "cis", "--witness-limit", "0"], 2),
        (["check", "Z2", "cis", "--witness-limit", "-1"], 2),
        (["check", "Z2", "cis", "--threads", "0"], 2),
        (["verify", "ab", "--threads", "-3"], 2),
        (["verify", "ab", "--force"], 2),
        (["catalog", "list", "--order", "0"], 2),
        (["catalog", "list", "--order", "13"], 2),
        (["catalog", "list", "--order", "-1"], 2),
        (["spectrum", "Z9xZ9", "0x2"], 7),
    ],
)
def test_error_exit_codes(capsys, tmp_path, argv, code):
    """{tmp} in argv stands for a fresh directory: a missing --json
    directory or a directory given as the checkpoint cannot be opened."""
    try:
        rc = cli.main([a.format(tmp=tmp_path) for a in argv])
    except SystemExit as e:  # argparse rejects the value
        rc = e.code
    capsys.readouterr()
    assert rc == code


def test_crt_capacity_exit_code(monkeypatch, capsys):
    """A char-poly coefficient bound past the CRT primes' capacity exits 7
    with its own message, like the order cap.  No catalog group reaches
    it, so the primes are cut to one."""
    monkeypatch.setattr(intlinalg, "PRIMES", intlinalg.PRIMES[:1])
    integrality._primes_for_degree.cache_clear()
    try:
        rc = cli.main(["spectrum", "Q8xZ2^2", "0x7e"])
    finally:
        integrality._primes_for_degree.cache_clear()
    assert rc == 7
    assert capsys.readouterr().err.startswith("size limit: coefficient bound exceeds")
    assert cli.main(["spectrum", "Z9xZ9", "0x2"]) == 7
    assert "size limit: group order 81 exceeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["--threads", "-3"], ["--threads", "0"], ["nope"], ["ab", "nope"]]
)
def test_run_verification_rejects_bad_arguments(monkeypatch, capsys, tmp_path, argv):
    """scripts/run_verification.py exits 2 before running any suite."""
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"
    spec = importlib.util.spec_from_file_location("run_verification", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(script), *argv, "--reports-dir", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        module.main()
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# the message of each damage; an undamaged checkpoint resumes
CHECKPOINT_DAMAGE = {
    "none": None,
    "other_scan": "does not match this scan",
    "truncated": "is not valid JSON",
    "missing_key": "lacks the key",
    "malformed_stats": "is malformed",
    "counter_negative": "has next_counter -1",
    "counter_past_end": "has next_counter 65",
    "counter_not_enumerated": "has next_counter 64, but 8",
    "mode_mismatch": "which a witness scan cannot resume",
}


@pytest.mark.parametrize("damage", list(CHECKPOINT_DAMAGE))
def test_checkpoint_error_exit_code(capsys, tmp_path, damage):
    """A damaged checkpoint exits 5.  D4 has 64 subsets, and the witness
    scan is cut at counter 8, before its first violation at 12; a next
    counter of 64 that its stats do not back would report a verdict on
    eight subsets as exhausted.  A tally checkpoint at counter 16 has
    counted violations it does not list, so `check` cannot resume it."""
    ckpt = tmp_path / "scan.json"
    exhaustive_scan(
        build_cached("D4"), "cayley_integral",
        witness_limit=None if damage == "mode_mismatch" else 1,
        checkpoint=str(ckpt), max_counters=16 if damage == "mode_mismatch" else 8,
    )
    group = "D4"
    if damage == "other_scan":
        group = "Q8"
    elif damage == "truncated":
        text = ckpt.read_text()
        ckpt.write_text(text[: len(text) // 2])
    elif damage not in ("none", "mode_mismatch"):
        state = json.loads(ckpt.read_text())
        if damage == "missing_key":
            del state["next_counter"]
        elif damage == "malformed_stats":
            state["stats"] = []
        else:
            counter = {"counter_negative": -1, "counter_past_end": 65}.get(damage, 64)
            state["next_counter"] = counter
            if damage != "counter_not_enumerated":
                state["stats"]["subsets_enumerated"] = counter
        ckpt.write_text(json.dumps(state))
    rc = cli.main(
        ["check", group, "cayley-integral", "--threads", "1", "--checkpoint", str(ckpt)]
    )
    out, err = capsys.readouterr()
    if damage == "none":
        assert rc == 0 and json.loads(out)["witnesses"][0]["counter"] == 12
    else:
        assert rc == 5
        assert err.startswith("checkpoint error: ") and CHECKPOINT_DAMAGE[damage] in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_thread_env_override(monkeypatch):
    monkeypatch.setenv("CAYLEY_SPECTRA_THREADS", "3")
    assert cli._default_threads() == 3
    monkeypatch.setenv("CAYLEY_SPECTRA_THREADS", "abc")
    assert cli._default_threads() >= 1
    monkeypatch.setenv("CAYLEY_SPECTRA_THREADS", "0")
    assert cli._default_threads() >= 1

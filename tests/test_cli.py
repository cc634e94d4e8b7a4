import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import knitweave
from knitweave import cli
from knitweave.cli import main, render_table
from knitweave.gallery import write_showcase_json
from knitweave.knitted import knitted_from_json, random_knitted
from knitweave.laurent import LaurentVZ, LaurentZ


def run_cli(*args: str, stdin: str | None = None) -> tuple[int, str]:
    out = io.StringIO()
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            rc = main(list(args), out=out)
        finally:
            sys.stdin = old
    else:
        rc = main(list(args), out=out)
    return rc, out.getvalue()


def test_homfly_json_trefoil():
    rc, out = run_cli("homfly", "--braid", "1,1,1", "--strands", "2", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["framed"]["terms"] == [
        {"v": -1, "z": 0, "c": "2"},
        {"v": -1, "z": 2, "c": "1"},
        {"v": 1, "z": 0, "c": "-1"},
    ]
    assert payload["seifert_circles"] == 2
    assert payload["writhe"] == 3
    assert payload["mfw_ok"] is True


def test_homfly_trivial_braid():
    rc, out = run_cli("homfly", "--braid", "", "--strands", "1")
    assert rc == 0
    assert "framed H   = 1" in out
    assert "unframed P = 1" in out


def test_homfly_from_pd_file(tmp_path):
    pd = tmp_path / "trefoil.pd"
    pd.write_text("X[2,1,3,4;+] X[4,3,5,6;+] X[6,5,1,2;+]\n")
    rc, out = run_cli("homfly", "--pd", str(pd), "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["framed"]["terms"][0] == {"v": -1, "z": 0, "c": "2"}


def test_table_of_unknot():
    rc, out = run_cli("table", stdin=json.dumps({"terms": [{"v": 0, "z": 0, "c": "1"}]}))
    assert rc == 0
    assert out.rstrip("\n").splitlines() == ["     v^0", "z^0    1"]


def test_render_table_zero():
    assert render_table(LaurentVZ.zero()) == "0"


def test_homfly_json_reparse_render_round_trip(tmp_path):
    path = write_showcase_json(tmp_path / "showcase.json")
    rc, out = run_cli("homfly", "--knitted", str(path), "--format", "json")
    framed = json.loads(out)["framed"]
    rc1, grid1 = run_cli("table", stdin=json.dumps(framed))
    reparsed = LaurentVZ.from_json_dict(json.loads(json.dumps(framed)))
    rc2, grid2 = run_cli("table", stdin=json.dumps(reparsed.to_json_dict()))
    assert rc1 == rc2 == 0
    assert grid1 == grid2


def test_verify_ft_pass_on_showcase(tmp_path):
    path = write_showcase_json(tmp_path / "showcase.json")
    rc, out = run_cli("verify-ft", "--knitted", str(path))
    assert rc == 0
    assert "verdict: PASS" in out
    assert "H-(D)" in out and "2 + 3*z^2 + z^4" in out


def test_verify_ft_pass_on_braid():
    rc, out = run_cli("verify-ft", "--braid", "1", "--strands", "2")
    assert rc == 0
    assert "verdict: PASS" in out


def test_verify_ft_injected_corruption_fails_with_diff(monkeypatch):
    real = cli.verify_theorem

    def corrupted(k):
        report = real(k)
        return dataclasses.replace(
            report, h_plus_ft=report.h_plus_ft + LaurentZ.one(), equality_holds=False
        )

    monkeypatch.setattr(cli, "verify_theorem", corrupted)
    rc, out = run_cli("verify-ft", "--braid", "1", "--strands", "2")
    assert rc == 1
    assert "verdict: FAIL" in out
    assert "minus signed H+" in out


def test_random_test_summary_and_determinism():
    rc1, out1 = run_cli("random-test", "--seed", "7", "--count", "12", "--max-strands", "3")
    rc2, out2 = run_cli("random-test", "--seed", "7", "--count", "12", "--max-strands", "3")
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.startswith("12/12 pass")


def test_random_test_failure_prints_replayable_sample(monkeypatch):
    rc, out = run_cli("random-test", "--seed", "7", "--count", "2")
    assert rc == 0
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "2/2 pass",
        "template sampling retries",
    ]

    real = cli.verify_theorem

    def failing(k):
        return dataclasses.replace(real(k), equality_holds=False)

    monkeypatch.setattr(cli, "verify_theorem", failing)
    rc, out = run_cli("random-test", "--seed", "7", "--count", "2")
    assert rc == 1
    lines = out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("first failure: sample 0 "))
    replayed = knitted_from_json(json.loads(lines[at + 1]))
    sampled, _ = random_knitted(Random(cli._sample_seed(7, 0)), 3, 3, 4)
    assert replayed == sampled


def test_random_test_zero_count():
    rc, out = run_cli("random-test", "--count", "0")
    assert rc == 0 and out.strip() == "0/0 pass"


def test_hecke_expand_output():
    rc, out = run_cli("hecke-expand", "--braid", "1,1", "--strands", "2", "--basis", "both")
    assert rc == 0
    assert "PPB expansion:" in out and "NPB expansion:" in out
    assert "2,1 : z" in out


def test_recursion_limit_exits_2_without_traceback(tmp_path, monkeypatch, capsys):
    def bottomless(d):
        return bottomless(d)

    monkeypatch.setattr(cli, "homfly", bottomless)
    pd = tmp_path / "trefoil.pd"
    pd.write_text("X[2,1,3,4;+] X[4,3,5,6;+] X[6,5,1,2;+]\n")
    rc, out = run_cli("homfly", "--pd", str(pd))
    err = capsys.readouterr().err
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "recursion limit" in err
    assert "Traceback" not in err


def test_parse_failure_exit_codes(tmp_path):
    rc, _ = run_cli("homfly", "--pd", str(tmp_path / "missing.pd"))
    assert rc == 2
    bad = tmp_path / "bad.pd"
    bad.write_text("X[1,2,3;+]")
    rc, _ = run_cli("homfly", "--pd", str(bad))
    assert rc == 2
    rc, _ = run_cli("homfly", "--braid", "9", "--strands", "2")
    assert rc == 2


def test_console_entry_point_runs():
    # the child imports the same package as this test, however pytest found it
    src = str(Path(knitweave.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "knitweave.cli", "homfly", "--braid", "1", "--strands", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "framed H   = v^-1" in proc.stdout

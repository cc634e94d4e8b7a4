import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from test_knitted import trefoil_chain, trefoil_cycle

import knitweave
from knitweave import cli, hecke, knitted
from knitweave.braid import BraidWord, full_twist_word, half_twist_word
from knitweave.cli import main, render_table
from knitweave.gallery import showcase_knot, write_showcase_json
from knitweave.knitted import (
    braid_closure,
    braid_closure_knitted,
    knitted_from_json,
    knitted_to_json,
    random_knitted,
    verify_theorem,
)
from knitweave.laurent import LaurentVZ, LaurentZ, delta_pow


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


def _refused(capsys, argv, message, stdin=None):
    """Run argv; check exit 2, an empty stdout and that stderr starts with message."""
    capsys.readouterr()
    rc, out = run_cli(*argv, stdin=stdin)
    err = capsys.readouterr().err
    assert rc == 2 and out == "", argv
    assert err.startswith(message) and "Traceback" not in err, (argv, err)


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


def test_homfly_pd_of_t_2_70_follows_the_framed_recurrence(tmp_path):
    # switching the last crossing of T(2,k) and cancelling the bigon gives
    # T(2,k-2), smoothing it gives T(2,k-1): H_k = H_(k-2) + z H_(k-1)
    prev, cur = delta_pow(1), LaurentVZ.monomial(-1, 0)
    for _ in range(69):
        prev, cur = cur, prev + LaurentVZ.monomial(0, 1) * cur
    d = braid_closure(BraidWord(2, (1,) * 70))
    pd = tmp_path / "t2_70.pd"
    pd.write_text(" ".join(
        f"X[{c.under_in},{c.over_in},{c.under_out},{c.over_out};{'+' if c.sign > 0 else '-'}]"
        for c in d.crossings
    ) + "\n")
    rc, out = run_cli("homfly", "--pd", str(pd), "--format", "json")
    assert rc == 0
    assert LaurentVZ.from_json_dict(json.loads(out)["framed"]) == cur


def test_table_of_unknot():
    rc, out = run_cli("table", stdin=json.dumps({"terms": [{"v": 0, "z": 0, "c": "1"}]}))
    assert rc == 0
    assert out.rstrip("\n").splitlines() == ["     v^0", "z^0    1"]


def test_table_cell_limit(monkeypatch, capsys):
    # 3 rows (z^0, z^2, z^4) by 4 columns (v^0 .. v^6)
    grid = {"terms": [{"v": 0, "z": 0, "c": "1"}, {"v": 6, "z": 4, "c": "-2"}]}
    monkeypatch.setattr(cli, "MAX_TABLE_CELLS", 12)
    rc, out = run_cli("table", stdin=json.dumps(grid))
    assert rc == 0 and len(out.splitlines()) == 4 and "v^6" in out
    monkeypatch.setattr(cli, "MAX_TABLE_CELLS", 11)
    capsys.readouterr()
    rc, out = run_cli("table", stdin=json.dumps(grid))
    err = capsys.readouterr().err
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "limit of 11 cells" in err and "Traceback" not in err
    # homfly refuses before printing either table
    monkeypatch.setattr(cli, "MAX_TABLE_CELLS", 1)
    rc, out = run_cli("homfly", "--braid", "1,1,1", "--strands", "2", "--format", "table")
    err = capsys.readouterr().err
    assert rc == 2 and out == "" and err.startswith("error: ") and "limit of 1 cells" in err
    # the default limit: a wide span is refused without building the grid
    monkeypatch.undo()
    wide = {"terms": [{"v": 0, "z": 0, "c": "1"}, {"v": 2 * cli.MAX_TABLE_CELLS, "z": 0, "c": "1"}]}
    rc, out = run_cli("table", stdin=json.dumps(wide))
    err = capsys.readouterr().err
    assert rc == 2 and out == "" and err.startswith("error: ") and "Traceback" not in err


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


# an even v-shift that moves every term past the Seifert bounds, and an odd
# z-shift that breaks the z-parity pattern
_PAST_BOUNDS = LaurentVZ.monomial(100, 0)
_ODD_Z = LaurentVZ.monomial(0, 1)


def _edit_report(monkeypatch, **edits):
    """Make cli's verify_theorem return the real report with fields edited."""
    real = cli.verify_theorem

    def edited(k):
        r = real(k)
        return dataclasses.replace(r, **{f: edit(getattr(r, f)) for f, edit in edits.items()})

    monkeypatch.setattr(cli, "verify_theorem", edited)


def _scale_framed(monkeypatch, factor):
    # H(D) reaches the checks twice, as the report's value and as the direct
    # skein value; scaling both keeps path equivalence and only the D checks see it
    _edit_report(monkeypatch, framed=factor.__mul__)
    real = cli.homfly_framed
    monkeypatch.setattr(cli, "homfly_framed", lambda d: factor * real(d))


CAMPAIGN_FAILURES = {
    "fast extreme coefficient": lambda mp: _edit_report(mp, fast_matches=lambda _: False),
    "path equivalence": lambda mp: mp.setattr(cli, "homfly_framed", lambda d: LaurentVZ.one()),
    "mfw bounds on D": lambda mp: _scale_framed(mp, _PAST_BOUNDS),
    "mfw bounds on FT D": lambda mp: _edit_report(mp, framed_ft=_PAST_BOUNDS.__mul__),
    "parity on D": lambda mp: _scale_framed(mp, _ODD_Z),
    "parity on FT D": lambda mp: _edit_report(mp, framed_ft=_ODD_Z.__mul__),
    "mp soundness (H+)": lambda mp: mp.setattr(cli, "mp_vanishing", lambda d: (True, False)),
    "mp soundness (H-)": lambda mp: mp.setattr(cli, "mp_vanishing", lambda d: (False, True)),
}


@pytest.mark.parametrize("name", CAMPAIGN_FAILURES)
def test_random_test_names_each_failed_check(monkeypatch, name):
    # "theorem equality" is forced by the test above; each other check the
    # campaign runs must fail alone, by its name, with a replayable sample
    CAMPAIGN_FAILURES[name](monkeypatch)
    rc, out = run_cli("random-test", "--seed", "7", "--count", "3")
    assert rc == 1
    lines = out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("first failure: "))
    head, failed = lines[at].split("): ")
    assert failed == name
    seed = int(head.rsplit("seed ", 1)[1])
    replayed = knitted_from_json(json.loads(lines[at + 1]))
    assert replayed == random_knitted(Random(seed), 3, 3, 4)[0]


def test_random_test_zero_count():
    rc, out = run_cli("random-test", "--count", "0")
    assert rc == 0 and out.strip() == "0/0 pass"


def test_the_sampled_templates_are_pinned():
    # the rng stream of the sampler on the campaign pool (seeds 7-10, 15
    # samples each) and on one 64-box sample: a change to how wirings are
    # drawn or refused moves these, so it cannot pass unnoticed
    tries, lines = 0, []
    for seed in (7, 8, 9, 10):
        for i in range(15):
            k, t = random_knitted(Random(cli._sample_seed(seed, i)), 3, 4, 6)
            tries += t
            lines.append(json.dumps(knitted_to_json(k)) + "\n")
    assert tries == 18495
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "e2995693b2f2d6df31b580ef4248ae5f5e9669a7c8eeabc5324c6b07c5734e96"
    )
    k, t = random_knitted(Random(cli._sample_seed(1, 0)), 64, 3, 4)
    assert t == 17471
    assert hashlib.sha256(json.dumps(knitted_to_json(k)).encode()).hexdigest() == (
        "fd24114dbe73112625cfd64c7a3bdeb59b2ff19f25d647899ef9dd04216c8f4e"
    )


def test_random_test_rejects_out_of_range_flags(capsys):
    for flag, value in (
        ("--count", "-5"),
        ("--max-boxes", "0"),
        ("--max-strands", "0"),
        ("--max-strands", "-2"),
        ("--max-strands", str(cli.MAX_STRANDS + 1)),
        ("--max-word-length", "-1"),
        ("--max-word-length", str(cli.MAX_WORD_LENGTH + 1)),
    ):
        capsys.readouterr()
        rc, out = run_cli("random-test", "--count", "1", flag, value)
        err = capsys.readouterr().err
        assert rc == 2 and out == "", (flag, value)
        assert err.startswith("error: ") and flag in err, (flag, value)
    rc, out = run_cli("random-test", "--count", "1", "--max-boxes", "1", "--max-strands", "1",
                      "--max-word-length", "0")
    assert rc == 0 and out.startswith("1/1 pass")
    rc, out = run_cli("random-test", "--count", "0", "--max-word-length", str(cli.MAX_WORD_LENGTH))
    assert rc == 0 and out.strip() == "0/0 pass"


def test_boxes_above_the_limit_exit_2_before_any_sample_is_drawn(monkeypatch, capsys):
    limit = cli.MAX_BOXES
    assert limit >= 20  # 20-box templates must stay in reach

    def never(*args):
        raise AssertionError("drew a sample above the box limit")

    monkeypatch.setattr(cli, "random_knitted", never)
    for value in (limit + 1, 100000000):
        capsys.readouterr()
        rc, out = run_cli("random-test", "--count", "1", "--max-boxes", str(value))
        err = capsys.readouterr().err
        assert rc == 2 and out == "", value
        assert err.startswith("error: ") and "--max-boxes" in err and str(limit) in err, value
        assert "Traceback" not in err


def test_template_sampling_exhaustion_exits_2(monkeypatch, capsys):
    # seed 11 exhausts the default tries too, after about 1 s
    monkeypatch.setattr(knitted, "TEMPLATE_TRIES", 5)
    rc, out = run_cli("random-test", "--seed", "11", "--count", "1", "--max-boxes", "1",
                      "--max-strands", "32")
    err = capsys.readouterr().err
    assert rc == 2 and out == ""
    assert err.startswith("error: no valid template found in 100 tries")
    assert "max_boxes=1" in err and "max_strands=32" in err and "Traceback" not in err


def test_input_flags_name_exactly_one_input(tmp_path, capsys):
    braid = ("--braid", "1", "--strands", "2")
    cases = (
        (("homfly", *braid, "--knitted", str(tmp_path / "absent.json")), "--knitted: not allowed with argument --braid"),
        (("verify-ft", "--knitted", "k.json", *braid), "--braid: not allowed with argument --knitted"),
        (("homfly", "--pd", "p.pd", "--knitted", "k.json"), "--knitted: not allowed with argument --pd"),
        (("homfly",), "one of the arguments --braid --pd --knitted is required"),
        (("verify-ft",), "one of the arguments --braid --knitted is required"),
    )
    for argv, message in cases:
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == "", argv
        assert message in captured.err and "Traceback" not in captured.err, argv


def test_hecke_expand_output():
    rc, out = run_cli("hecke-expand", "--braid", "1,1", "--strands", "2", "--basis", "both")
    assert rc == 0
    assert "PPB expansion:" in out and "NPB expansion:" in out
    assert "2,1 : z" in out


def test_hecke_expansion_over_the_term_limit_exits_2_and_prints_nothing(monkeypatch, capsys):
    monkeypatch.setattr(hecke, "MAX_TERMS", 24)

    def half_twist(n):
        return ("hecke-expand", "--braid=" + ",".join(map(str, half_twist_word(n).letters)), "--strands", str(n))

    # the NPB form of the half twist spans the whole basis: 4! terms is at the limit
    rc, out = run_cli(*half_twist(4), "--basis", "both")
    assert rc == 0 and len(out.splitlines()) == 2 + 1 + 24
    for basis in ("npb", "both"):
        capsys.readouterr()
        rc, out = run_cli(*half_twist(5), "--basis", basis)
        err = capsys.readouterr().err
        assert rc == 2 and out == "", basis
        assert err.startswith("error: ") and "MAX_TERMS = 24" in err and "Traceback" not in err, basis


def test_homfly_of_the_9_strand_full_twist_exits_2_at_the_term_limit(capsys):
    # FT_9 spans more of H_9 than the 8! terms of MAX_TERMS
    letters = ",".join(map(str, full_twist_word(9).letters))
    capsys.readouterr()
    rc, out = run_cli("homfly", "--braid", letters, "--strands", "9")
    err = capsys.readouterr().err
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and f"MAX_TERMS = {hecke.MAX_TERMS}" in err
    assert "Traceback" not in err


def test_knitted_boxes_above_the_strand_limit_exit_2(tmp_path, monkeypatch, capsys):
    limit = cli.MAX_STRANDS
    path = tmp_path / "box.json"
    path.write_text(json.dumps(knitted_to_json(braid_closure_knitted(BraidWord(limit, (1,))))))
    rc, out = run_cli("homfly", "--knitted", str(path))
    assert rc == 0 and f"seifert circles: {limit}" in out

    def never(*args):
        raise AssertionError("compiled a box above the strand limit")

    monkeypatch.setattr(cli, "compile_diagram", never)
    wide = knitted_to_json(braid_closure_knitted(BraidWord(limit + 1, (1,))))
    wide["boxes"].insert(0, {"strands": 1, "word": []})  # the wide box is box 1
    wide["wiring"] = [["b0.out0", "b0.in0"]] + [
        [f"b1.out{p}", f"b1.in{p}"] for p in range(limit + 1)
    ]
    path.write_text(json.dumps(wide))
    for command in ("homfly", "verify-ft"):
        capsys.readouterr()
        rc, out = run_cli(command, "--knitted", str(path))
        err = capsys.readouterr().err
        assert rc == 2 and out == "", command
        assert err.startswith(f"error: box 1 has {limit + 1} strands") and str(limit) in err, command
        assert "Traceback" not in err, command


def test_a_wide_box_is_checked_in_linear_time_before_the_strand_limit(tmp_path):
    # the template conditions run as the file loads, before the strand limit:
    # on one box of 20,000 strands, each its own circle, a check over every
    # pair of circles would run for minutes
    n = 20000
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "boxes": [{"strands": n, "word": []}],
        "wiring": [[f"b0.out{p}", f"b0.in{p}"] for p in range(n)],
    }))
    src = str(Path(knitweave.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "knitweave.cli", "homfly", "--knitted", str(path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: box 0 has {n} strands"), proc.stderr


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-string digit limit")
def test_value_past_the_int_string_limit_exits_2(tmp_path):
    # 20,000 free loops give delta^19999, whose middle coefficient has about
    # 6,000 digits; printing it passes Python's default 4,300-digit limit
    path = tmp_path / "loops.pd"
    path.write_text(" ".join(["O"] * 20000))
    src = str(Path(knitweave.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "knitweave.cli", "homfly", "--pd", str(path)],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, proc.stderr


class _GoneReader(io.StringIO):
    """An output whose reader has closed the pipe."""

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_output_pipe_exits_1_without_an_error_line(capsys):
    # a reader that leaves early (`| head`) cuts the output short; the input
    # was good, so no error line blames it, and the exit is 1 as for EPIPE
    rc = main(["homfly", "--braid", "1,1,1", "--strands", "2"], out=_GoneReader())
    assert rc == 1 and capsys.readouterr().err == ""
    # a process whose stdout is a pipe with no reader: its exit-time flush of
    # the buffered output raises nothing more
    src = str(Path(knitweave.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "knitweave.cli", "homfly", "--braid", "1,1,1", "--strands", "2"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1 and proc.stderr == "", proc.stderr


def test_invalid_knitted_template_exits_2_at_load(tmp_path, capsys):
    # the 2-strand closure with its strands crossed over
    crossed = {"boxes": [{"strands": 2, "word": [1]}], "wiring": [["b0.out0", "b0.in1"], ["b0.out1", "b0.in0"]]}
    cases = (
        (crossed, ("error: invalid knitted template: ", "more than once", "not realizable in the plane")),
        ({"boxes": [], "wiring": []}, ("error: a template needs at least one box",)),
    )
    path = tmp_path / "bad.json"
    for obj, phrases in cases:
        path.write_text(json.dumps(obj))
        for command in ("homfly", "verify-ft"):
            capsys.readouterr()
            rc, out = run_cli(command, "--knitted", str(path))
            err = capsys.readouterr().err
            assert rc == 2 and out == "", (command, obj)
            assert err.startswith(phrases[0]) and all(p in err for p in phrases), (command, err)
            assert "Traceback" not in err, command


def test_verify_ft_compiles_nothing_itself(tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError("verify-ft compiled a diagram it does not use")

    monkeypatch.setattr(cli, "compile_diagram", never)
    path = write_showcase_json(tmp_path / "showcase.json")
    for flags in (("--knitted", str(path)), ("--braid", "1,1,1", "--strands", "2")):
        rc, out = run_cli("verify-ft", *flags)
        assert rc == 0 and "verdict: PASS" in out, flags


def test_recursion_limit_exits_2_without_traceback(tmp_path, monkeypatch, capsys):
    def bottomless(d):
        return bottomless(d)

    monkeypatch.setattr(cli, "homfly_framed", bottomless)
    pd = tmp_path / "trefoil.pd"
    pd.write_text("X[2,1,3,4;+] X[4,3,5,6;+] X[6,5,1,2;+]\n")
    rc, out = run_cli("homfly", "--pd", str(pd))
    err = capsys.readouterr().err
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "recursion limit" in err
    assert "Traceback" not in err

    # the same handler without a deep stack, which a line tracer can follow:
    # a trace function that hits the recursion limit is switched off
    def too_deep(d):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "homfly_framed", too_deep)
    message = (
        "error: input too deep to evaluate: evaluation exceeded Python's recursion limit "
        f"({sys.getrecursionlimit()})\n"
    )
    _refused(capsys, ("homfly", "--pd", str(pd)), message)


def test_parse_failure_exit_codes(tmp_path, capsys):
    rc, _ = run_cli("homfly", "--pd", str(tmp_path / "missing.pd"))
    assert rc == 2
    bad = tmp_path / "bad.pd"
    bad.write_text("X[1,2,3;+]")
    rc, _ = run_cli("homfly", "--pd", str(bad))
    assert rc == 2
    rc, _ = run_cli("homfly", "--braid", "9", "--strands", "2")
    assert rc == 2
    malformed = (
        {"boxes": 5, "wiring": []},
        {"boxes": [{"strands": 2, "word": [1]}], "wiring": 5},
        {"boxes": [{"strands": 1, "word": []}], "wiring": [[5, "b0.in0"]]},
        {"boxes": [{"strands": 2, "word": [float("inf")]}], "wiring": []},
    )
    # loadable but for the box fields, which must be JSON integers
    one = [["b0.out0", "b0.in0"]]
    two = [["b0.out0", "b0.in0"], ["b0.out1", "b0.in1"]]
    malformed += (
        {"boxes": [{"strands": "\u0662", "word": ["\u0661"]}], "wiring": two},
        {"boxes": [{"strands": 2.7, "word": [1.9]}], "wiring": two},
        {"boxes": [{"strands": 2.0, "word": []}], "wiring": two},
        {"boxes": [{"strands": True, "word": []}], "wiring": one},
        {"boxes": [{"strands": 2, "word": [True]}], "wiring": two},
        {"boxes": [{"strands": 2, "word": "1"}], "wiring": two},
    )
    for obj in malformed:
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(obj))
        for command in ("homfly", "verify-ft"):
            capsys.readouterr()
            rc, out = run_cli(command, "--knitted", str(path))
            err = capsys.readouterr().err
            assert rc == 2 and out == "", (obj, command)
            assert err.startswith("error: ") and "Traceback" not in err, (obj, command)
    # polynomial JSON for `table` takes the same integer rule
    for term in (
        {"v": True, "z": 0, "c": "1"},
        {"v": 0, "z": 0, "c": "\u0661"},
        {"v": 0, "z": 0, "c": " 1_0 "},
    ):
        capsys.readouterr()
        rc, out = run_cli("table", stdin=json.dumps({"terms": [term]}))
        err = capsys.readouterr().err
        assert rc == 2 and out == "", term
        assert err.startswith("error: ") and "Traceback" not in err, term


def test_strands_above_the_limit_exit_2_before_anything_is_built(monkeypatch, capsys):
    limit = cli.MAX_STRANDS
    assert limit >= 8  # FT_8 must stay in reach
    evaluated = []

    def small_report(k):
        evaluated.append(k.words[0].strands)
        return verify_theorem(braid_closure_knitted(BraidWord(2, (1,))))

    monkeypatch.setattr(cli, "verify_theorem", small_report)
    commands = (
        ("homfly", "--braid", "1"),
        ("verify-ft", "--braid", "1"),
        ("hecke-expand", "--braid", "1", "--basis", "both"),
    )
    for command in commands:
        rc, out = run_cli(*command, "--strands", str(limit))
        assert rc == 0 and out, command
    assert evaluated == [limit]

    def never(*args):
        raise AssertionError("built input above the strand limit")

    for name in ("parse_braid_word", "braid_closure_knitted", "expand_word"):
        monkeypatch.setattr(cli, name, never)
    for command in commands:
        capsys.readouterr()
        rc, out = run_cli(*command, "--strands", str(limit + 1))
        err = capsys.readouterr().err
        assert rc == 2 and out == "", command
        assert err.startswith("error: ") and "--strands" in err and str(limit) in err, command
        assert "Traceback" not in err


def test_non_ascii_digits_and_trailing_newlines_exit_2(tmp_path, capsys):
    pd = tmp_path / "digits.pd"
    pd.write_text("X[\u0662,1,1,\u0662;+]", encoding="utf-8")  # X[2,1,1,2;+], Arabic-Indic 2s
    argvs = [("homfly", "--pd", str(pd)), ("homfly", "--braid", "\u0661", "--strands", "2")]
    for i, source in enumerate(("b\u0660.out0", "b0.out0\n", "b0.out0")):
        path = tmp_path / f"endpoint{i}.json"
        wiring = [[source, "b0.in0"]]
        path.write_text(json.dumps({"boxes": [{"strands": 1, "word": []}], "wiring": wiring}))
        argvs += [("homfly", "--knitted", str(path)), ("verify-ft", "--knitted", str(path))]
    *rejected, ascii_homfly, ascii_verify = argvs
    for argv in rejected:
        capsys.readouterr()
        rc, out = run_cli(*argv)
        err = capsys.readouterr().err
        assert rc == 2 and out == "", argv
        assert err.startswith("error: ") and "Traceback" not in err, argv
    assert run_cli(*ascii_homfly)[0] == 0 and run_cli(*ascii_verify)[0] == 0


def test_every_input_branch_exits_2_with_its_message(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    _refused(capsys, ("homfly", "--knitted", str(missing)), f"error: cannot read {missing}: ")
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    _refused(capsys, ("homfly", "--knitted", str(broken)), f"error: {broken}: invalid JSON: ")
    _refused(capsys, ("homfly", "--braid", "1"), "error: --braid requires --strands\n")
    empty = tmp_path / "empty.pd"
    empty.write_text("")
    _refused(capsys, ("homfly", "--pd", str(empty)), "error: empty diagram has no HOMFLY value\n")
    endpoints = (
        (["b0.in0", "b0.in0"], "error: endpoint 'b0.in0' should be an out endpoint\n"),
        (["b0.out0", "b1.in0"], "error: endpoint 'b1.in0' names a box that does not exist\n"),
    )
    path = tmp_path / "endpoint.json"
    for pair, message in endpoints:
        path.write_text(json.dumps({"boxes": [{"strands": 1, "word": []}], "wiring": [pair]}))
        _refused(capsys, ("homfly", "--knitted", str(path)), message)
    keyless = json.dumps({"terms": [{"v": 0, "z": 0}]})
    _refused(capsys, ("table",), "error: term 0: expected keys 'v', 'z', 'c'\n", stdin=keyless)


def test_table_reads_a_file_path(tmp_path):
    rc, out = run_cli("homfly", "--braid", "1,1,1", "--strands", "2", "--format", "json")
    framed = json.dumps(json.loads(out)["framed"])
    path = tmp_path / "framed.json"
    path.write_text(framed)
    rc_file, from_file = run_cli("table", str(path))
    rc_stdin, from_stdin = run_cli("table", stdin=framed)
    assert rc == rc_file == rc_stdin == 0
    assert from_file == from_stdin
    assert any(line.startswith("z^0 ") for line in from_file.splitlines())


def test_verify_ft_reports_a_disagreeing_fast_formula(monkeypatch):
    real = cli.verify_theorem
    monkeypatch.setattr(
        cli, "verify_theorem", lambda k: dataclasses.replace(real(k), fast_matches=False)
    )
    rc, out = run_cli("verify-ft", "--braid", "1", "--strands", "2")
    report = real(braid_closure_knitted(BraidWord(2, (1,))))
    assert rc == 1
    assert out.splitlines()[-3:] == [
        "verdict: FAIL",
        "  H-(D) minus signed H+(FT D): 0",
        f"  fast formula disagrees: {report.fast_h_minus} vs {report.h_minus}",
    ]


def test_knitted_chain_of_16_trefoils_closes_box_by_box(tmp_path):
    # the 16-edge path's boxes close one after another from its ends, so no
    # tuple is left to count against the bound
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(knitted_to_json(trefoil_chain(16))))
    trefoil = LaurentVZ({(-1, 0): 2, (-1, 2): 1, (1, 0): -1})
    power = LaurentVZ.one()
    for _ in range(16):
        power = power * trefoil
    rc, out = run_cli("homfly", "--knitted", str(path), "--format", "json")
    assert rc == 0 and LaurentVZ.from_json_dict(json.loads(out)["framed"]) == power
    rc, out = run_cli("verify-ft", "--knitted", str(path))
    assert rc == 0 and out.splitlines()[-1] == "verdict: PASS"


def test_eval_hecke_runs_no_skein_on_a_campaign_batch(monkeypatch):
    # every D and FT(D) of this batch closes completely, so eval_hecke runs
    # no skein evaluation (the batch's direct skein on D goes through
    # skein's own binding); the showcase has no box end wired to itself, so
    # FT(showcase) keeps its whole tuple sum
    framed, expanded = knitted._framed, knitted._expanded
    calls, boxes = [], []

    def counting(d):
        calls.append(d)
        return framed(d)

    def recording(k):
        boxes.append(len(k.words))
        return expanded(k)

    monkeypatch.setattr(knitted, "_framed", counting)
    monkeypatch.setattr(knitted, "_expanded", recording)
    rc, out = run_cli(
        "random-test", "--seed", "7", "--count", "15", "--max-strands", "4", "--max-word-length", "6"
    )
    assert rc == 0 and "15/15 pass" in out.splitlines()
    assert len(boxes) == 30 and sum(n > 1 for n in boxes) == 22
    assert calls == []
    knitted.eval_hecke(knitted.ft(showcase_knot()))
    assert len(calls) == 384


def test_knitted_chain_over_the_tuple_bound_exits_2(tmp_path, capsys):
    # the 16-edge cycle: the chain of the same length closes completely
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(knitted_to_json(trefoil_cycle(16))))
    message = f"error: tuple sum over 65536 tuples exceeds the limit of MAX_TERMS = {hecke.MAX_TERMS}\n"
    _refused(capsys, ("homfly", "--knitted", str(path)), message)


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

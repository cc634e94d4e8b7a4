"""Command-line front end.

Subcommands: ``homfly`` (evaluate a braid closure, PD code, or knitted
diagram), ``verify-ft`` (check the signed full-twist equality), ``hecke-expand``
(permutation-braid expansions of a braid word), ``random-test`` (seeded
verification campaign), ``table`` (render a polynomial JSON as a coefficient
grid).

Exit codes: 0 on success, 1 on verification failure, 2 on input that cannot
be parsed or evaluated (including input deep enough to exhaust Python's
recursion limit, ``--strands``, ``--max-strands`` or a knitted box above
``MAX_STRANDS``, ``--max-boxes`` above ``MAX_BOXES``, ``--max-word-length``
above ``MAX_WORD_LENGTH``, a Hecke expansion of more than
``hecke.MAX_TERMS`` terms or a knitted tuple sum of more than that many
tuples, template sampling that finds no valid template,
a table of more than ``MAX_TABLE_CELLS`` cells, and a coefficient past
Python's int-to-string digit limit). Argparse exits 2 as
well when the input flags name no input or more than one. A reader that
closes standard output early (``| head``) ends the run with exit 1, as
Python's documentation advises for a broken pipe, and no ``error:`` line:
the input was good.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from random import Random

from knitweave.braid import parse_braid_word
from knitweave.diagram import (
    PlanarDiagram,
    component_count,
    parse_pd,
    seifert_circles,
    writhe,
)
from knitweave.hecke import NPB, convert, expand_word, render_element
from knitweave.knitted import (
    KnittedDiagram,
    _signed_gap,
    braid_closure_knitted,
    compile_diagram,
    eval_hecke,
    knitted_from_json,
    knitted_to_json,
    random_knitted,
    verify_theorem,
)
from knitweave.laurent import LaurentVZ
from knitweave.skein import homfly_framed, mfw_check, mp_vanishing

__all__ = ["main", "render_table"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_BROKEN_PIPE = 1

# The largest --strands (and random-test --max-strands) accepted: four times
# the 8 strands of FT_8, the largest full twist the engine aims at. Above it,
# building the closure and its Hecke basis grows with the strand count alone
# (--braid 1 on 5000 strands took 12 s, random-test --max-strands 200 ran for
# minutes), so the flag is checked before anything is built.
MAX_STRANDS = 32

# The largest random-test --max-boxes accepted: enough for the 20-box
# templates the campaign aims at, with room above. A sample draws a box
# profile of up to --max-boxes boxes, held in memory, and every wiring it
# tries grows with it, so the flag is checked before anything is built. On a
# 2-core x86 host one sample took 0.3 to 1.9 s at 64 boxes (seeds 1-3, up to
# 68,060 wiring tries) and 1.3 s at 200 (seed 0), each in a fresh process.
MAX_BOXES = 64

# The longest random-test --max-word-length accepted. Every box word of a
# campaign sample is drawn letter by letter and its closure is evaluated by
# skein recursion, whose time grows quickly with the crossings. Direct skein
# first takes out the cancelling pairs that random signed words are full of,
# so a 2-strand, 3-sample campaign at length 100 passes in about 0.2 s
# (seeds 0-9), but at --max-strands 4 seeds 2 and 3 were still in direct
# skein after 60 s (2-core x86 host); --max-word-length 100000000 was still
# drawing its first word after 60 s.
MAX_WORD_LENGTH = 100

# The most cells (rows x columns) render_table lays out. The grid spans every
# exponent between the extremes, so a two-term polynomial with v^0 and
# v^200000 already prints 1.9 MB; the size is checked before any cell exists.
MAX_TABLE_CELLS = 10**6


def render_table(p: LaurentVZ) -> str:
    """Coefficient grid: columns are v-exponents ascending, rows z ascending.

    Steps of 2 between adjacent cells (falling back to 1 if exponents mix
    parity), empty cells for zero coefficients, exact signed decimal entries.
    Raises ValueError if the grid would have more than MAX_TABLE_CELLS cells.
    """
    if not p:
        return "0"
    vs_present = sorted(p.v_exponents())
    zs_present = sorted(p.z_exponents())
    v_step = 2 if len({v % 2 for v in vs_present}) == 1 else 1
    z_step = 2 if len({z % 2 for z in zs_present}) == 1 else 1
    n_cols = (vs_present[-1] - vs_present[0]) // v_step + 1
    n_rows = (zs_present[-1] - zs_present[0]) // z_step + 1
    if n_rows * n_cols > MAX_TABLE_CELLS:
        raise ValueError(
            f"table of {n_rows} x {n_cols} cells exceeds the limit of {MAX_TABLE_CELLS} cells"
        )
    vs = list(range(vs_present[0], vs_present[-1] + 1, v_step))
    zs = list(range(zs_present[0], zs_present[-1] + 1, z_step))
    col_labels = [f"v^{v}" if v else "v^0" for v in vs]
    row_labels = [f"z^{z}" if z else "z^0" for z in zs]
    cells = [[p.coeff(v, z) for v in vs] for z in zs]
    widths = []
    for j, label in enumerate(col_labels):
        w = len(label)
        for row in cells:
            if row[j]:
                w = max(w, len(str(row[j])))
        widths.append(w)
    left = max(len(r) for r in row_labels)
    lines = [" " * left + "  " + "  ".join(l.rjust(w) for l, w in zip(col_labels, widths))]
    for label, row in zip(row_labels, cells):
        rendered = [str(c).rjust(w) if c else " " * w for c, w in zip(row, widths)]
        lines.append((label.ljust(left) + "  " + "  ".join(rendered)).rstrip())
    return "\n".join(lines)


def _load_knitted(path: str) -> KnittedDiagram:
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    return knitted_from_json(obj)


def _resolve_input(args: argparse.Namespace) -> KnittedDiagram | PlanarDiagram:
    """Turn the input flags into the knitted diagram or PD code they name."""
    if args.braid is not None:
        if args.strands is None:
            raise ValueError("--braid requires --strands")
        return braid_closure_knitted(parse_braid_word(args.braid, args.strands))
    if args.knitted_path is not None:
        k = _load_knitted(args.knitted_path)
        for i, n in enumerate(k.template.boxes):
            if n > MAX_STRANDS:
                raise ValueError(f"box {i} has {n} strands; at most {MAX_STRANDS} are allowed")
        return k
    return parse_pd(Path(args.pd_path).read_text())


def cmd_homfly(args: argparse.Namespace, out) -> int:
    source = _resolve_input(args)
    if isinstance(source, KnittedDiagram):
        d, framed = compile_diagram(source), eval_hecke(source)
    else:
        d, framed = source, homfly_framed(source)
    s, _ = seifert_circles(d)
    w = writhe(d)
    unframed = LaurentVZ.monomial(w, 0) * framed
    mfw_ok = mfw_check(framed, s)
    plus_zero, minus_zero = mp_vanishing(d)
    if args.output_format == "json":
        payload = {
            "framed": framed.to_json_dict(),
            "unframed": unframed.to_json_dict(),
            "seifert_circles": s,
            "writhe": w,
            "mfw_ok": mfw_ok,
            "mp_predicts_plus_zero": plus_zero,
            "mp_predicts_minus_zero": minus_zero,
        }
        print(json.dumps(payload, indent=2), file=out)
    elif args.output_format == "table":
        # both are rendered first, so a refused table prints nothing
        framed_table, unframed_table = render_table(framed), render_table(unframed)
        print("framed H:", file=out)
        print(framed_table, file=out)
        print("unframed P:", file=out)
        print(unframed_table, file=out)
        _print_stats(out, s, w, mfw_ok, plus_zero, minus_zero)
    else:
        print(f"framed H   = {framed}", file=out)
        print(f"unframed P = {unframed}", file=out)
        _print_stats(out, s, w, mfw_ok, plus_zero, minus_zero)
    return EXIT_OK


def _print_stats(out, s: int, w: int, mfw_ok: bool, plus_zero: bool, minus_zero: bool) -> None:
    print(f"seifert circles: {s}", file=out)
    print(f"writhe: {w}", file=out)
    print(f"mfw bounds: {'ok' if mfw_ok else 'VIOLATED'}", file=out)
    print(f"mp predicts H+ = 0: {'yes' if plus_zero else 'no'}", file=out)
    print(f"mp predicts H- = 0: {'yes' if minus_zero else 'no'}", file=out)


def cmd_verify_ft(args: argparse.Namespace, out) -> int:
    report = verify_theorem(_resolve_input(args))
    print(f"seifert circles: {report.seifert_count}", file=out)
    print(f"sign: {report.sign:+d}", file=out)
    print(f"H-(D)       = {report.h_minus}", file=out)
    print(f"H+(FT D)    = {report.h_plus_ft}", file=out)
    print(f"fast H-(D)  = {report.fast_h_minus}", file=out)
    if report.passed:
        print("verdict: PASS", file=out)
        return EXIT_OK
    print("verdict: FAIL", file=out)
    diff = _signed_gap(report.h_minus, report.h_plus_ft, report.sign)
    print(f"  H-(D) minus signed H+(FT D): {diff}", file=out)
    if not report.fast_matches:
        print(
            f"  fast formula disagrees: {report.fast_h_minus} vs {report.h_minus}",
            file=out,
        )
    return EXIT_VERIFY_FAIL


def _sample_seed(seed: int, index: int) -> int:
    return (seed * 2654435761 + index * 40503 + 12345) & 0xFFFFFFFFFFFFFFFF


def _run_sample(args: argparse.Namespace, index: int) -> tuple[KnittedDiagram, list[str], int]:
    """All per-sample checks; returns the sample, failed check names and retries."""
    rng = Random(_sample_seed(args.seed, index))
    k, tries = random_knitted(rng, args.max_boxes, args.max_strands, args.max_word_length)
    failures: list[str] = []
    report = verify_theorem(k)
    if not report.equality_holds:
        failures.append("theorem equality")
    if not report.fast_matches:
        failures.append("fast extreme coefficient")
    d = compile_diagram(k)
    direct = homfly_framed(d)
    if direct != report.framed:
        failures.append("path equivalence")
    s = report.seifert_count
    for tag, h in (("D", report.framed), ("FT D", report.framed_ft)):
        if not mfw_check(h, s):
            failures.append(f"mfw bounds on {tag}")
    c = component_count(d)
    for tag, h in (("D", report.framed), ("FT D", report.framed_ft)):
        if any((v - (s - 1)) % 2 for v in h.v_exponents()) or any(
            (z - (c - 1)) % 2 for z in h.z_exponents()
        ):
            failures.append(f"parity on {tag}")
    plus_zero, minus_zero = mp_vanishing(d)
    if plus_zero and report.framed.coeff_of_v(s - 1):
        failures.append("mp soundness (H+)")
    if minus_zero and report.h_minus:
        failures.append("mp soundness (H-)")
    return k, failures, tries


def cmd_random_test(args: argparse.Namespace, out) -> int:
    results = [_run_sample(args, i) for i in range(args.count)]
    passed = sum(1 for _, fails, _ in results if not fails)
    print(f"{passed}/{args.count} pass", file=out)
    if results:
        print(
            f"template sampling retries: {sum(t for _, _, t in results)}",
            file=out,
        )
    for i, (k, fails, _) in enumerate(results):
        if fails:
            print(
                f"first failure: sample {i} (seed {_sample_seed(args.seed, i)}): "
                + ", ".join(fails),
                file=out,
            )
            # the sample as knitted JSON on one line, for `homfly --knitted`
            print(json.dumps(knitted_to_json(k)), file=out)
            return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_hecke_expand(args: argparse.Namespace, out) -> int:
    word = parse_braid_word(args.braid, args.strands)
    x = expand_word(word)
    # every expansion is computed first, so a refused one prints nothing
    sections = []
    if args.basis in ("ppb", "both"):
        sections.append(("PPB expansion:", x))
    if args.basis in ("npb", "both"):
        sections.append(("NPB expansion:", convert(x, NPB)))
    for header, y in sections:
        print(header, file=out)
        print(render_element(y), file=out)
    return EXIT_OK


def cmd_table(args: argparse.Namespace, out) -> int:
    if args.table_path == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.table_path).read_text()
    obj = json.loads(text)
    p = LaurentVZ.from_json_dict(obj)
    print(render_table(p), file=out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knitweave",
        description="Framed HOMFLY polynomials of braid closures and knitted diagrams.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_input_flags(p: argparse.ArgumentParser, with_pd: bool = True) -> None:
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--braid", help="inline braid word, e.g. '1,-2,1'")
        if with_pd:
            source.add_argument("--pd", dest="pd_path", help="PD code file")
        source.add_argument("--knitted", dest="knitted_path", help="knitted diagram JSON file")
        p.add_argument("--strands", type=int, help="strand count for --braid")

    p_h = sub.add_parser("homfly", help="compute framed and unframed HOMFLY")
    add_input_flags(p_h)
    p_h.set_defaults(command=cmd_homfly)
    p_h.add_argument("--format", dest="output_format", choices=("json", "table", "text"), default="text")

    p_v = sub.add_parser("verify-ft", help="check H-(D) = (-1)^(s-1) H+(FT D)")
    add_input_flags(p_v, with_pd=False)
    p_v.set_defaults(command=cmd_verify_ft)

    p_e = sub.add_parser("hecke-expand", help="permutation-braid expansion of a braid word")
    p_e.set_defaults(command=cmd_hecke_expand)
    p_e.add_argument("--braid", required=True)
    p_e.add_argument("--strands", type=int, required=True)
    p_e.add_argument("--basis", choices=("ppb", "npb", "both"), default="ppb")

    p_r = sub.add_parser("random-test", help="seeded verification campaign")
    p_r.set_defaults(command=cmd_random_test)
    p_r.add_argument("--seed", type=int, default=0)
    p_r.add_argument("--count", type=int, default=50)
    p_r.add_argument("--max-boxes", type=int, default=3)
    p_r.add_argument("--max-strands", type=int, default=3)
    p_r.add_argument("--max-word-length", type=int, default=4)

    p_t = sub.add_parser("table", help="render polynomial JSON as a coefficient grid")
    p_t.set_defaults(command=cmd_table)
    p_t.add_argument("table_path", nargs="?", default="-", help="polynomial JSON file (default: stdin)")
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # every numeric flag, checked before the command builds anything
        for flag, least, most in (
            ("--strands", -math.inf, MAX_STRANDS),
            ("--count", 0, math.inf),
            ("--max-boxes", 1, MAX_BOXES),
            ("--max-strands", 1, MAX_STRANDS),
            ("--max-word-length", 0, MAX_WORD_LENGTH),
        ):
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is not None and value < least:
                raise ValueError(f"{flag} must be at least {least}, got {value}")
            if value is not None and value > most:
                raise ValueError(f"{flag} must be at most {most}, got {value}")
        code = args.command(args, out)
        out.flush()  # a reader that has gone shows here, not at exit
        return code
    except BrokenPipeError:
        # the output is cut short, not wrong; the interpreter's exit-time
        # flush of what sys.stdout still buffers must not raise again
        if out is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:  # parse, template and sampling errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except RecursionError:
        print(
            "error: input too deep to evaluate: evaluation exceeded Python's "
            f"recursion limit ({sys.getrecursionlimit()})",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end.

Subcommands: ``homfly`` (evaluate a braid closure, PD code, or knitted
diagram), ``verify-ft`` (check the signed full-twist equality), ``hecke-expand``
(permutation-braid expansions of a braid word), ``random-test`` (seeded
verification campaign), ``table`` (render a polynomial JSON as a coefficient
grid).

Exit codes: 0 on success, 1 on verification failure, 2 on input that cannot
be parsed or evaluated (including input deep enough to exhaust Python's
recursion limit).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
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
    braid_closure_knitted,
    compile_diagram,
    eval_hecke,
    knitted_from_json,
    knitted_to_json,
    random_knitted,
    seifert_count,
    verify_theorem,
)
from knitweave.laurent import LaurentVZ
from knitweave.skein import homfly, homfly_framed, mfw_check, mp_vanishing

__all__ = ["RunConfig", "main", "render_table"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2


@dataclass
class RunConfig:
    """Resolved options of one CLI invocation; seeded runs are reproducible."""

    subcommand: str
    braid: str | None = None
    strands: int | None = None
    pd_path: str | None = None
    knitted_path: str | None = None
    output_format: str = "text"
    seed: int = 0
    count: int = 0
    max_boxes: int = 3
    max_strands: int = 3
    max_word_length: int = 4
    basis: str = "ppb"
    table_path: str | None = None


def render_table(p: LaurentVZ) -> str:
    """Coefficient grid: columns are v-exponents ascending, rows z ascending.

    Steps of 2 between adjacent cells (falling back to 1 if exponents mix
    parity), empty cells for zero coefficients, exact signed decimal entries.
    """
    if not p:
        return "0"
    vs_present = sorted(p.v_exponents())
    zs_present = sorted(p.z_exponents())
    v_step = 2 if len({v % 2 for v in vs_present}) == 1 else 1
    z_step = 2 if len({z % 2 for z in zs_present}) == 1 else 1
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


def _resolve_input(cfg: RunConfig) -> tuple[PlanarDiagram, KnittedDiagram | None]:
    """Turn the input flags into a diagram (and the knitted form if given)."""
    if cfg.braid is not None:
        if cfg.strands is None:
            raise ValueError("--braid requires --strands")
        word = parse_braid_word(cfg.braid, cfg.strands)
        k = braid_closure_knitted(word)
        return compile_diagram(k), k
    if cfg.knitted_path is not None:
        k = _load_knitted(cfg.knitted_path)
        return compile_diagram(k), k
    if cfg.pd_path is not None:
        text = Path(cfg.pd_path).read_text()
        return parse_pd(text), None
    raise ValueError("no input given; use --braid, --pd, or --knitted")


def cmd_homfly(cfg: RunConfig, out) -> int:
    d, k = _resolve_input(cfg)
    if k is not None:
        framed = eval_hecke(k)
        s = seifert_count(k.template)
        w = writhe(d)
        unframed = LaurentVZ.monomial(w, 0) * framed
    else:
        result = homfly(d)
        framed, unframed = result.framed, result.unframed
        s, w = result.seifert_count, result.writhe
    mfw_ok = mfw_check(framed, s)
    plus_zero, minus_zero = mp_vanishing(d)
    if cfg.output_format == "json":
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
    elif cfg.output_format == "table":
        print("framed H:", file=out)
        print(render_table(framed), file=out)
        print("unframed P:", file=out)
        print(render_table(unframed), file=out)
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


def cmd_verify_ft(cfg: RunConfig, out) -> int:
    _, k = _resolve_input(cfg)
    if k is None:
        raise ValueError("verify-ft needs a knitted diagram or an inline braid")
    report = verify_theorem(k)
    print(f"seifert circles: {report.seifert_count}", file=out)
    print(f"sign: {report.sign:+d}", file=out)
    print(f"H-(D)       = {report.h_minus}", file=out)
    print(f"H+(FT D)    = {report.h_plus_ft}", file=out)
    print(f"fast H-(D)  = {report.fast_h_minus}", file=out)
    if report.passed:
        print("verdict: PASS", file=out)
        return EXIT_OK
    print("verdict: FAIL", file=out)
    diff = report.h_minus - report.sign * report.h_plus_ft
    print(f"  H-(D) minus signed H+(FT D): {diff}", file=out)
    if not report.fast_matches:
        print(
            f"  fast formula disagrees: {report.fast_h_minus} vs {report.h_minus}",
            file=out,
        )
    return EXIT_VERIFY_FAIL


def _sample_seed(seed: int, index: int) -> int:
    return (seed * 2654435761 + index * 40503 + 12345) & 0xFFFFFFFFFFFFFFFF


def _run_sample(
    seed: int, index: int, cfg: RunConfig
) -> tuple[KnittedDiagram, list[str], int]:
    """All per-sample checks; returns the sample, failed check names and retries."""
    rng = Random(_sample_seed(seed, index))
    k, tries = random_knitted(rng, cfg.max_boxes, cfg.max_strands, cfg.max_word_length)
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


def cmd_random_test(cfg: RunConfig, out) -> int:
    results = [_run_sample(cfg.seed, i, cfg) for i in range(cfg.count)]
    passed = sum(1 for _, fails, _ in results if not fails)
    print(f"{passed}/{cfg.count} pass", file=out)
    if results:
        print(
            f"template sampling retries: {sum(t for _, _, t in results)}",
            file=out,
        )
    for i, (k, fails, _) in enumerate(results):
        if fails:
            print(
                f"first failure: sample {i} (seed {_sample_seed(cfg.seed, i)}): "
                + ", ".join(fails),
                file=out,
            )
            # the sample as knitted JSON on one line, for `homfly --knitted`
            print(json.dumps(knitted_to_json(k)), file=out)
            return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_hecke_expand(cfg: RunConfig, out) -> int:
    if cfg.braid is None or cfg.strands is None:
        raise ValueError("hecke-expand needs --braid and --strands")
    word = parse_braid_word(cfg.braid, cfg.strands)
    x = expand_word(word)
    if cfg.basis in ("ppb", "both"):
        print("PPB expansion:", file=out)
        print(render_element(x), file=out)
    if cfg.basis in ("npb", "both"):
        print("NPB expansion:", file=out)
        print(render_element(convert(x, NPB)), file=out)
    return EXIT_OK


def cmd_table(cfg: RunConfig, out) -> int:
    if cfg.table_path is None or cfg.table_path == "-":
        text = sys.stdin.read()
    else:
        text = Path(cfg.table_path).read_text()
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
        p.add_argument("--braid", help="inline braid word, e.g. '1,-2,1'")
        p.add_argument("--strands", type=int, help="strand count for --braid")
        if with_pd:
            p.add_argument("--pd", dest="pd_path", help="PD code file")
        p.add_argument("--knitted", dest="knitted_path", help="knitted diagram JSON file")

    p_h = sub.add_parser("homfly", help="compute framed and unframed HOMFLY")
    add_input_flags(p_h)
    p_h.add_argument("--format", dest="output_format", choices=("json", "table", "text"), default="text")

    p_v = sub.add_parser("verify-ft", help="check H-(D) = (-1)^(s-1) H+(FT D)")
    add_input_flags(p_v, with_pd=False)

    p_e = sub.add_parser("hecke-expand", help="permutation-braid expansion of a braid word")
    p_e.add_argument("--braid", required=True)
    p_e.add_argument("--strands", type=int, required=True)
    p_e.add_argument("--basis", choices=("ppb", "npb", "both"), default="ppb")

    p_r = sub.add_parser("random-test", help="seeded verification campaign")
    p_r.add_argument("--seed", type=int, default=0)
    p_r.add_argument("--count", type=int, default=50)
    p_r.add_argument("--max-boxes", type=int, default=3)
    p_r.add_argument("--max-strands", type=int, default=3)
    p_r.add_argument("--max-word-length", type=int, default=4)

    p_t = sub.add_parser("table", help="render polynomial JSON as a coefficient grid")
    p_t.add_argument("table_path", nargs="?", default="-", help="polynomial JSON file (default: stdin)")
    return parser


_COMMANDS = {
    "homfly": cmd_homfly,
    "verify-ft": cmd_verify_ft,
    "hecke-expand": cmd_hecke_expand,
    "random-test": cmd_random_test,
    "table": cmd_table,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    ns = parser.parse_args(argv)
    cfg = RunConfig(**{k: v for k, v in vars(ns).items()})
    try:
        return _COMMANDS[cfg.subcommand](cfg, out)
    except (ValueError, OSError) as exc:  # parse errors and TemplateError are ValueErrors
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

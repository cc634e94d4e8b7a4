"""Derive and cross-check the committed reference values in ``expected.json``.

The full-twist references come from a third route that shares no code with
the package: an Ocneanu trace on the Hecke algebra, after Jones (1987) and
Morton–Short (1990), in plain dicts. For a positive permutation braid T_w on
n strands, let p be the strand that ends rightmost. If p starts rightmost,
T_w = T_u (x) 1 and tr(T_w) = delta * tr(T_u). Otherwise p can cross right
first: T_w = A sigma_(n-1) T_u with A, T_u in H_(n-1), and
tr(T_w) = v^-1 tr(A T_u). A braid's framed H is the trace of its expansion.

The script checks those values against the package's Hecke route, its
direct skein route where that finishes, and the T(2,k) recurrence; the
showcase tables were transcribed from the acceptance suite and are checked
against both package routes. Run from the repository root:

    python3 bench/crosscheck.py          # check expected.json
    python3 bench/crosscheck.py --write  # recompute the trace-route entries
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path
from random import Random

import reference as ref

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def times_generator(x: dict, i: int, positive: bool) -> dict:
    """Right-multiply sum c_w T_w by sigma_i^(+-1); w maps start -> end position."""
    out: dict = {}

    def add(w, c):
        out[w] = ref.padd(out.get(w, {}), c)

    for w, c in x.items():
        a, b = w.index(i - 1), w.index(i)  # strands now at positions i-1 and i
        sw = list(w)
        sw[a], sw[b] = i, i - 1
        sw = tuple(sw)
        add(sw, c)
        if a < b and not positive:  # new crossing, sigma^-1 = sigma - z
            add(w, {e + 1: -k for e, k in c.items()})
        elif a > b and positive:  # T_w sigma = T_(s w) + z T_w
            add(w, {e + 1: k for e, k in c.items()})
    return {w: c for w, c in out.items() if c}


def expand(n: int, letters) -> dict:
    x = {tuple(range(n)): {0: 1}}
    for g in letters:
        x = times_generator(x, abs(g), g > 0)
    return x


def reduced_letters(u: tuple[int, ...]) -> list[int]:
    """A positive reduced word for u by bubble sort of the strands."""
    cur = list(range(len(u)))  # strand (by start position) at each position
    letters = []
    done = False
    while not done:
        done = True
        for j in range(len(u) - 1):
            if u[cur[j]] > u[cur[j + 1]]:
                cur[j], cur[j + 1] = cur[j + 1], cur[j]
                letters.append(j + 1)
                done = False
                break
    return letters


@lru_cache(maxsize=None)
def trace_tw(w: tuple[int, ...]) -> tuple:
    """tr(T_w) as sorted ((v, z), c) items; tr of the 1-strand identity is 1."""
    n = len(w)
    if n == 1:
        return (((0, 0), 1),)
    p = w.index(n - 1)
    starts = [s for s in range(n) if s != p]
    u = tuple(w[s] for s in starts)
    if p == n - 1:
        return tuple(sorted(ref.pmul_vz(dict(trace_tw(u)), ref.DELTA).items()))
    # A = sigma_(p+1) ... sigma_(n-2) moves p next to the last position in H_(n-1)
    x = expand(n - 1, list(range(p + 1, n - 1)) + reduced_letters(u))
    return tuple(sorted(ref.shift_vz(trace(x), -1, 0).items()))


def trace(x: dict) -> dict:
    """tr of sum c_w T_w, each c_w a polynomial in z."""
    total: dict = {}
    for w, c in x.items():
        for (v, z), k in trace_tw(w):
            for e, ck in c.items():
                total[(v, z + e)] = total.get((v, z + e), 0) + k * ck
    return {key: c for key, c in total.items() if c}


def closure_h(n: int, letters) -> dict:
    return trace(expand(n, letters))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    from knitweave import braid, diagram, gallery, hecke, knitted, skein

    path = HERE / "expected.json"
    expected = json.loads(path.read_text())
    problems: list[str] = []

    def agree(label: str, *values) -> None:
        ok = all(v == values[0] for v in values[1:])
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            problems.append(label)

    def pd(strands, letters):
        crossings, free = ref.closure_crossings(strands, letters)
        return diagram.parse_pd(ref.relabeled_pd(crossings, free, Random(0)))

    for k in (1, 2, 3, 8, 13, 20):
        agree(f"T(2,{k}): recurrence = trace = direct skein", ref.torus_2k(k),
              closure_h(2, (1,) * k), skein.homfly_framed(pd(2, (1,) * k)).terms)

    computed = {}
    for n in (2, 3, 4, 5, 6):
        letters = ref.full_twist_letters(n)
        h = closure_h(n, letters)
        routes = [h, knitted.eval_hecke(knitted.braid_closure_knitted(braid.BraidWord(n, letters))).terms]
        if n <= 4:
            routes.append(skein.homfly_framed(pd(n, letters)).terms)
        agree(f"FT_{n} closure: trace = Hecke route" + (" = direct skein" if n <= 4 else ""), *routes)
        computed[f"ft{n}_closure"] = ref.poly_to_json(h)

    ft6 = expand(6, ref.full_twist_letters(6))
    x = hecke.expand_word(braid.BraidWord(6, ref.full_twist_letters(6)))
    top = ft6[tuple(range(5, -1, -1))]
    agree("FT_6 expansion: term count and top coefficient", (len(ft6), top), (len(x.coeffs), hecke.top_coeff(x).terms))
    computed["ft6_terms"] = len(ft6)
    computed["ft6_top"] = ref.zpoly_to_json(top)

    sq = ref.full_twist_letters(6) * 2
    h_minus = {z: c for (v, z), c in closure_h(6, sq).items() if v == -5}
    fast = knitted.extreme_minus_fast(knitted.braid_closure_knitted(braid.BraidWord(6, sq))).terms
    agree("FT_6^2 closure: trace H- = extreme_minus_fast", h_minus, fast)
    computed["ft6sq_h_minus"] = ref.zpoly_to_json(h_minus)

    show = gallery.showcase_knot()
    want = ref.poly_from_json(expected["showcase_h"])
    agree("showcase: acceptance table = Hecke route = direct skein", want,
          knitted.eval_hecke(show).terms, skein.homfly_framed(knitted.compile_diagram(show)).terms)
    agree("ft(showcase): acceptance table = Hecke route",
          ref.poly_from_json(expected["showcase_ft_h"]), knitted.eval_hecke(knitted.ft(show)).terms)
    s = knitted.seifert_count(show.template)
    agree("showcase extreme coefficient string", expected["showcase_extreme"], str(knitted.extreme_minus_fast(show)),
          str(ref_z(want, 1 - s)))

    for key, value in computed.items():
        if args.write:
            expected[key] = value
        else:
            agree(f"expected.json {key} is current", expected.get(key), value)
    if args.write and not problems:
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 1 if problems else 0


def ref_z(p: dict, v_exp: int) -> str:
    """Render the z-polynomial at v^v_exp the way LaurentZ prints."""
    from knitweave.laurent import LaurentZ

    return str(LaurentZ({z: c for (v, z), c in p.items() if v == v_exp}))


if __name__ == "__main__":
    sys.exit(main())

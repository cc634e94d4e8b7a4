"""The four workloads: inputs built from the seed, operations, and their checks.

Each workload runs one of the paper's evaluation routes through the public
API, and every output is compared with a reference that does not come from
the route under test:

- ``skein_direct``: ``homfly_framed`` on parsed PD text. Dominated by
  ``diagram.canonical_raw`` and memo growth; bypasses Hecke and ``validate``.
- ``hecke_route``: ``eval_hecke`` and the in-process CLI on full twists.
  Dominated by per-tuple ``compile_diagram``, ``planarity_check`` and small
  memo-hitting skein evaluations.
- ``hecke_basis``: ``expand_word``, ``convert`` and ``extreme_minus_fast``.
  Dominated by ``hecke`` and ``LaurentZ``; bypasses ``diagram`` and ``skein``.
- ``campaign``: ``random-test`` batches through ``cli.main``. Dominated by
  rejection sampling (``validate``), ``verify_theorem`` and direct skein.

Functions are looked up on their modules at call time (``knitted.eval_hecke``),
so the traced run's wrappers see the benchmark's own calls.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Any, Callable

import reference as ref

WORKLOADS = ("skein_direct", "hecke_route", "hecke_basis", "campaign")

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())

# random-test batches as (CLI seed, sample count). The per-sample cost of a
# campaign is heavy-tailed (a few 4-strand full twists dominate), and 100
# samples drawn from ten different seeds spread by 29% of their median, more
# than any bound the benchmark may fix. So the batches are a fixed pool and
# the benchmark seed only sets the order they run in, which changes what the
# shared memo already holds when each batch starts.
CAMPAIGN_BATCHES = ((7, 15), (8, 15), (9, 15), (10, 15))
CAMPAIGN_FLAGS = ("--max-strands", "4", "--max-word-length", "6")


@dataclass
class Op:
    """One timed operation; ``check`` returns an error message or None."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _rng(workload: str, seed: int) -> Random:
    return Random(f"{workload}/{seed}")


def _same(label: str, got: dict, want: dict) -> str | None:
    if got == want:
        return None
    diff = sorted(set(got.items()) ^ set(want.items()))[:3]
    return f"{label}: mismatch, first differing terms {diff}"


def _vz(name: str) -> dict:
    return ref.poly_from_json(EXPECTED[name])


def _cli(argv: list[str]) -> tuple[int, str]:
    from knitweave import cli

    out = io.StringIO()
    rc = cli.main(argv, out=out)
    return rc, out.getvalue()


def _closure_knitted(strands: int, letters: tuple[int, ...]):
    from knitweave import braid, knitted

    return knitted.braid_closure_knitted(braid.BraidWord(strands, letters))


def _showcase_json(rng: Random) -> dict:
    """The showcase knot's JSON with its boxes renumbered at random."""
    from knitweave import gallery, knitted

    obj = knitted.knitted_to_json(gallery.showcase_knot())
    perm = list(range(len(obj["boxes"])))
    rng.shuffle(perm)
    boxes = [None] * len(perm)
    for old, new in enumerate(perm):
        boxes[new] = obj["boxes"][old]

    def rename(endpoint: str) -> str:
        box, port = re.match(r"b(\d+)\.(.*)", endpoint).groups()
        return f"b{perm[int(box)]}.{port}"

    wiring = [[rename(a), rename(b)] for a, b in obj["wiring"]]
    rng.shuffle(wiring)
    return {"boxes": boxes, "wiring": wiring}


def build_skein_direct(seed: int, workdir: Path, counters: dict) -> tuple[list[Op], dict]:
    from knitweave import diagram, gallery, knitted, skein

    rng = _rng("skein_direct", seed)
    texts: list[tuple[str, str, dict]] = []
    for k in (20, 30, 40):
        crossings, free = ref.closure_crossings(2, (1,) * k)
        texts.append((f"T(2,{k})", ref.relabeled_pd(crossings, free, rng), ref.torus_2k(k)))
    crossings, free = ref.closure_crossings(4, ref.full_twist_letters(4))
    texts.append(("FT_4", ref.relabeled_pd(crossings, free, rng), _vz("ft4_closure")))
    show = knitted.compile_diagram(gallery.showcase_knot())
    show_raw = [c.as_tuple() for c in show.crossings]
    texts.append(("showcase", ref.relabeled_pd(show_raw, show.free_loops, rng), _vz("showcase_h")))

    ops = []
    for name, text, want in texts:
        d = diagram.parse_pd(text)
        ops.append(
            Op(name, lambda d=d: skein.homfly_framed(d),
               lambda h, name=name, want=want: _same(name, h.terms, want))
        )
    return ops, {"relabel": f"skein_direct/{seed}"}


def build_hecke_route(seed: int, workdir: Path, counters: dict) -> tuple[list[Op], dict]:
    from knitweave import knitted

    rng = _rng("hecke_route", seed)
    rotations = {}
    inputs = []
    for n in (5, 6):
        full = ref.full_twist_letters(n)
        rotations[f"ft{n}_rotation"] = r = rng.randrange(len(full))
        inputs.append((f"FT_{n}", _closure_knitted(n, ref.rotate(full, r)), _vz(f"ft{n}_closure")))
    show = _showcase_json(rng)
    inputs.append(("ft(showcase)", knitted.ft(knitted.knitted_from_json(show)), _vz("showcase_ft_h")))
    path = workdir / "showcase.json"
    path.write_text(json.dumps(show))

    ops = [
        Op(name, lambda k=k: knitted.eval_hecke(k),
           lambda h, name=name, want=want: _same(name, h.terms, want))
        for name, k, want in inputs
    ]

    def check_homfly(result) -> str | None:
        rc, text = result
        if rc != 0:
            return f"homfly --knitted exited {rc}"
        return _same("cli homfly", ref.poly_from_json(json.loads(text)["framed"]), _vz("showcase_h"))

    def check_verify(result) -> str | None:
        rc, text = result
        pairs = (line.split("=", 1) for line in text.splitlines() if "=" in line)
        sides = {key.strip(): value.strip() for key, value in pairs}
        if rc != 0 or "verdict: PASS" not in text:
            return f"verify-ft exited {rc}: {text!r}"
        if sides.get("H-(D)") != EXPECTED["showcase_extreme"] or sides.get("H+(FT D)") != EXPECTED["showcase_extreme"]:
            return f"verify-ft extreme coefficients differ: {sides}"
        return None

    homfly_argv = ["homfly", "--knitted", str(path), "--format", "json"]
    ops.append(Op("cli homfly --knitted", lambda: _cli(homfly_argv), check_homfly))
    ops.append(Op("cli verify-ft", lambda: _cli(["verify-ft", "--knitted", str(path)]), check_verify))
    return ops, rotations


def _random_letters(rng: Random, strands: int, length: int) -> tuple[int, ...]:
    return tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length))


def build_hecke_basis(seed: int, workdir: Path, counters: dict) -> tuple[list[Op], dict]:
    from knitweave import braid, hecke, knitted

    rng = _rng("hecke_basis", seed)
    r5 = rng.randrange(20)
    # a 12-crossing permutation braid on 6 strands: converting it peels a
    # 384-element Bruhat interval. The seed picks its image under the diagram
    # flip (i -> 6 - i) and the word reversal, which keep that interval's shape.
    flip, reverse = rng.randrange(2), rng.randrange(2)
    perm12 = ref.half_twist_letters(6)[:12]
    perm12 = tuple(6 - g for g in perm12) if flip else perm12
    perm12 = perm12[::-1] if reverse else perm12
    words = [
        ("FT_5", braid.BraidWord(5, ref.rotate(ref.full_twist_letters(5), r5))),
        ("half twist 5", braid.BraidWord(5, ref.half_twist_letters(5))),
        ("12-crossing permutation braid 6", braid.BraidWord(6, perm12)),
    ]
    words += [(f"random 5-strand #{i}", braid.BraidWord(5, _random_letters(rng, 5, 12))) for i in range(3)]

    def round_trip(word):
        x = hecke.expand_word(word)
        y = hecke.convert(x, hecke.NPB)
        return x, y, hecke.convert(y, hecke.PPB)

    def check_round_trip(result, name: str) -> str | None:
        x, y, back = result
        if y.basis != hecke.NPB or back != x:
            return f"{name}: PPB -> NPB -> PPB does not return the expansion"
        if hecke.top_coeff(x) != hecke.top_coeff(y):
            return f"{name}: longest-element coefficient differs between bases"
        return None

    ops = [
        Op(name, lambda w=w: round_trip(w), lambda res, name=name: check_round_trip(res, name))
        for name, w in words
    ]

    ft6 = braid.BraidWord(6, ref.full_twist_letters(6))

    def check_ft6(x) -> str | None:
        if len(x.coeffs) != EXPECTED["ft6_terms"]:
            return f"FT_6 expansion has {len(x.coeffs)} terms"
        return _same("FT_6 top coefficient", hecke.top_coeff(x).terms, ref.zpoly_from_json(EXPECTED["ft6_top"]))

    ops.append(Op("expand FT_6", lambda: hecke.expand_word(ft6), check_ft6))
    ft6sq = _closure_knitted(6, ref.full_twist_letters(6) * 2)
    ops.append(
        Op("extreme_minus_fast FT_6^2", lambda: knitted.extreme_minus_fast(ft6sq),
           lambda c: _same("H- of FT_6^2", c.terms, ref.zpoly_from_json(EXPECTED["ft6sq_h_minus"])))
    )
    return ops, {"ft5_rotation": r5, "perm12_flip": flip, "perm12_reverse": reverse}


def build_campaign(seed: int, workdir: Path, counters: dict) -> tuple[list[Op], dict]:
    from knitweave import cli  # noqa: F401  (import cost belongs to set-up)

    batches = list(CAMPAIGN_BATCHES)
    _rng("campaign", seed).shuffle(batches)
    pass_line = re.compile(r"^(\d+)/(\d+) pass$", re.M)
    retries_line = re.compile(r"^template sampling retries: (\d+)$", re.M)

    def check(result, count: int) -> str | None:
        rc, text = result
        m = pass_line.search(text)
        if rc != 0 or not m or m.groups() != (str(count), str(count)):
            return f"random-test exited {rc}: {text!r}"
        retries = retries_line.search(text)
        counters["cli.sampling_retries"] = counters.get("cli.sampling_retries", 0) + int(retries.group(1))
        return None

    ops = [
        Op(f"random-test --seed {s} --count {c}",
           lambda s=s, c=c: _cli(["random-test", "--seed", str(s), "--count", str(c), *CAMPAIGN_FLAGS]),
           lambda res, c=c: check(res, c))
        for s, c in batches
    ]
    return ops, {"batch_seeds": [s for s, _ in batches]}


BUILDERS = {
    "skein_direct": build_skein_direct,
    "hecke_route": build_hecke_route,
    "hecke_basis": build_hecke_basis,
    "campaign": build_campaign,
}

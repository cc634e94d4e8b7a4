"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on a green run (pytest captures stdout otherwise).
"""

import io
import json
import time
from random import Random

import conftest
from naive_hecke import combine
from naive_skein import naive_homfly_framed

from knitweave.braid import BraidWord
from knitweave.cli import main, render_table
from knitweave.gallery import showcase_knot, write_showcase_json
from knitweave.hecke import NPB, convert, expand_word, top_coeff
from knitweave.knitted import (
    braid_closure_knitted,
    compile_diagram,
    eval_hecke,
    ft,
    knitted_to_json,
    random_knitted,
    verify_theorem,
)
from knitweave.laurent import LaurentVZ, LaurentZ
from knitweave.skein import homfly_framed, homfly_unframed

# ---------------------------------------------------------------------------
# frozen expected values
# ---------------------------------------------------------------------------

# H of the showcase knot: columns v^-6 .. v^2, rows z^0, z^2, ...
SHOWCASE_H = LaurentVZ(
    {
        (-6, 0): 2, (-6, 2): 3, (-6, 4): 1,
        (-4, 0): -1, (-4, 2): -2, (-4, 4): -3, (-4, 6): -1,
        (-2, 0): -1, (-2, 2): -2, (-2, 4): -3, (-2, 6): -1,
        (0, 0): 2, (0, 2): 3, (0, 4): 1,
        (2, 0): -1,
    }
)

# H of the full-twisted showcase knot: columns v^-6 .. v^6 (step 2), the
# list per column runs z^0, z^2, ... upward
_FT_COLUMNS = {
    -6: [112, 1008, 3864, 8416, 11655, 10833, 6925, 3055, 914, 177, 20, 1],
    -4: [-336, -2384, -6816, -10076, -7747, -1804, 2052, 2206, 1013, 257, 35, 2],
    -2: [419, 2328, 4921, 4817, 1727, -554, -508, 112, 216, 86, 15, 1],
    0: [-281, -1212, -1892, -1314, -498, -424, -509, -317, -101, -16, -1],
    2: [107, 344, 359, 125, 13, 36, 33, 10, 1],
    4: [-22, -49, -27, 4, 6, 1],
    6: [2, 3, 1],
}
SHOWCASE_FT_H = LaurentVZ(
    {
        (v, 2 * row): c
        for v, column in _FT_COLUMNS.items()
        for row, c in enumerate(column)
        if c
    }
)

EXTREME = LaurentZ({0: 2, 2: 3, 4: 1})  # 2 + 3z^2 + z^4


def _report(criterion: int, ok: bool, message: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, f"criterion {criterion} failed: {message}"


def _run_cli(*args: str) -> tuple[int, str]:
    out = io.StringIO()
    rc = main(list(args), out=out)
    return rc, out.getvalue()


def test_criterion_1_showcase_polynomial(tmp_path):
    start = time.monotonic()
    path = write_showcase_json(tmp_path / "showcase.json")
    rc, out = _run_cli("homfly", "--knitted", str(path), "--format", "json")
    elapsed = time.monotonic() - start
    assert rc == 0
    framed = LaurentVZ.from_json_dict(json.loads(out)["framed"])
    ok = framed == SHOWCASE_H and elapsed < 10.0
    _report(
        1,
        ok,
        f"showcase H matches the frozen table exactly ({elapsed:.2f}s < 10s)",
    )


def test_criterion_2_full_twist_table(tmp_path):
    start = time.monotonic()
    k_ft = ft(showcase_knot())
    path = tmp_path / "showcase_ft.json"
    path.write_text(json.dumps(knitted_to_json(k_ft)))
    rc, out = _run_cli("homfly", "--knitted", str(path), "--format", "json")
    assert rc == 0
    framed = LaurentVZ.from_json_dict(json.loads(out)["framed"])
    elapsed = time.monotonic() - start
    grid_ok = framed == SHOWCASE_FT_H
    # the three largest entries sit in the bottom column of the grid
    spot_ok = (
        framed.coeff(-6, 8) == 11655
        and framed.coeff(-6, 10) == 10833
        and framed.coeff(-6, 12) == 6925
    )
    extreme_ok = framed.coeff_of_v(6) == EXTREME
    rendered_ok = render_table(framed) == render_table(SHOWCASE_FT_H)
    ok = grid_ok and spot_ok and extreme_ok and rendered_ok and elapsed < 300.0
    _report(
        2,
        ok,
        "full-twist grid reproduced exactly, including 11655/10833/6925, "
        f"H+ = 2+3z^2+z^4 ({elapsed:.2f}s < 300s)",
    )


def test_criterion_3_theorem_campaign():
    start = time.monotonic()
    rng = Random(20260810)
    failures = []
    for i in range(200):
        k, _ = random_knitted(rng, 3, 3, 4)
        r = verify_theorem(k)
        if not (r.equality_holds and r.fast_matches):
            failures.append((i, knitted_to_json(k)))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 300.0
    _report(
        3,
        ok,
        f"200/200 random knitted diagrams satisfy the signed equality "
        f"({elapsed:.1f}s < 300s)"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_4_braid_closure_special_case():
    start = time.monotonic()
    rng = Random(411)
    failures = 0
    for _ in range(500):
        n = rng.randint(1, 3)
        length = rng.randint(0, 5) if n > 1 else 0
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)
        )
        w = BraidWord(n, letters)
        r = verify_theorem(braid_closure_knitted(w))
        if not (r.passed and r.sign == (-1) ** (n - 1)):
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 300.0
    _report(
        4,
        ok,
        f"500/500 braid closures (n <= 3, length <= 5) satisfy "
        f"H-(B^) = (-1)^(n-1) H+(FT B^) ({elapsed:.1f}s < 300s)",
    )


def test_criterion_5_top_coefficient_across_bases():
    rng = Random(3553)
    checked = 0
    for n in (3, 4):
        for _ in range(500):
            terms = []
            for _ in range(rng.randint(1, 3)):
                letters = tuple(
                    rng.choice((1, -1)) * rng.randint(1, n - 1)
                    for _ in range(rng.randint(0, 6))
                )
                coeff = LaurentZ(
                    {
                        rng.randint(-2, 2): rng.randint(-3, 3)
                        for _ in range(rng.randint(1, 3))
                    }
                )
                terms.append((coeff, expand_word(BraidWord(n, letters))))
            x = combine(n, terms)
            assert top_coeff(x) == top_coeff(convert(x, NPB))
            checked += 1
    _report(5, checked == 1000, f"{checked} random Hecke elements: PPB and NPB top coefficients agree")


def test_criterion_6_mfw_parity_mp_audit():
    # the conftest audit hook asserts MFW bounds, the (2,0)/(0,2) parity
    # pattern, and forced extreme-coefficient zeros at the moment every
    # framed polynomial is computed, so a green suite means no violations;
    # here we confirm the hook is active and has seen the suite's traffic
    count = conftest.audited_count
    _report(
        6,
        count > 300,
        f"every computed polynomial audited for MFW/parity/forced zeros "
        f"({count} distinct evaluations so far, zero violations)",
    )


def test_criterion_7_oracle_equivalence():
    corpus = list(conftest.small_diagrams.values())
    assert len(corpus) > 100, "expected a substantial corpus of small diagrams"
    for i, d in enumerate(corpus):
        assert naive_homfly_framed(d, seed=i) == homfly_framed(d), (
            f"naive evaluator disagrees on {d!r}"
        )
    rng = Random(777)
    hecke_checked = 0
    for _ in range(100):
        k, _ = random_knitted(rng, 3, 3, 4)
        assert eval_hecke(k) == homfly_framed(compile_diagram(k))
        hecke_checked += 1
    _report(
        7,
        True,
        f"naive evaluator matches on {len(corpus)} distinct small diagrams; "
        f"Hecke path matches direct evaluation on {hecke_checked} knitted samples",
    )


def test_criterion_8_hand_derived_fixed_points():
    start = time.monotonic()
    k1 = homfly_framed(compile_diagram(braid_closure_knitted(BraidWord(2, (1,)))))
    k2 = homfly_framed(compile_diagram(braid_closure_knitted(BraidWord(2, (1, 1)))))
    k3 = homfly_framed(compile_diagram(braid_closure_knitted(BraidWord(2, (1, 1, 1)))))
    from knitweave.diagram import braid_closure

    p3 = homfly_unframed(braid_closure(BraidWord(2, (1, 1, 1))))
    elapsed = time.monotonic() - start
    ok = (
        k1 == LaurentVZ.monomial(-1, 0)
        and k2 == LaurentVZ({(-1, -1): 1, (1, -1): -1, (-1, 1): 1})
        and k3 == LaurentVZ({(-1, 0): 2, (1, 0): -1, (-1, 2): 1})
        and p3 == LaurentVZ({(2, 0): 2, (4, 0): -1, (2, 2): 1})
        and elapsed < 1.0
    )
    _report(
        8,
        ok,
        f"kink, Hopf, trefoil and P(trefoil) match their hand-derived values "
        f"({elapsed * 1000:.0f}ms)",
    )

"""Reference values and input text built without importing knitweave.

Polynomials here are plain dicts: ``{(v_exp, z_exp): coeff}`` for
``Z[v^±1, z^±1]`` and ``{z_exp: coeff}`` for ``Z[z^±1]``, zero coefficients
never stored. Braid words use knitweave's letter convention (letter ``g`` is
``sigma_|g|``, inverted when negative) so the generated PD text describes the
same link the package would build, but every line of arithmetic and every
arc label is produced here.
"""

from __future__ import annotations

from random import Random

Poly = dict  # (v, z) -> int, or z -> int


def padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def pmul_vz(a: Poly, b: Poly) -> Poly:
    out: dict = {}
    for (v1, z1), c1 in a.items():
        for (v2, z2), c2 in b.items():
            k = (v1 + v2, z1 + z2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def shift_vz(a: Poly, dv: int, dz: int) -> Poly:
    return {(v + dv, z + dz): c for (v, z), c in a.items()}


DELTA = {(-1, -1): 1, (1, -1): -1}  # (v^-1 - v) / z


def torus_2k(k: int) -> Poly:
    """Framed H of the closure of sigma_1^k on two strands.

    Switching the last crossing and cancelling the bigon gives sigma_1^(k-2);
    smoothing it gives sigma_1^(k-1). So H_k = H_(k-2) + z H_(k-1), with
    H_0 the two-circle unlink and H_1 a circle with one positive kink.
    """
    prev, cur = dict(DELTA), {(-1, 0): 1}
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, padd(prev, shift_vz(cur, 0, 1))
    return cur


def poly_from_json(obj: dict) -> Poly:
    """Read the package's polynomial JSON form into a (v, z) dict."""
    return {(t["v"], t["z"]): int(t["c"]) for t in obj["terms"] if int(t["c"])}


def poly_to_json(p: Poly) -> dict:
    return {"terms": [{"v": v, "z": z, "c": str(c)} for (v, z), c in sorted(p.items())]}


def zpoly_from_json(obj: dict) -> Poly:
    return {int(z): int(c) for z, c in obj.items() if int(c)}


def zpoly_to_json(p: Poly) -> dict:
    return {str(z): str(c) for z, c in sorted(p.items())}


def half_twist_letters(n: int) -> tuple[int, ...]:
    """A positive word for the longest permutation: (1..n-1)(1..n-2)...(1)."""
    return tuple(i for top in range(n - 1, 0, -1) for i in range(1, top + 1))


def full_twist_letters(n: int) -> tuple[int, ...]:
    return half_twist_letters(n) * 2


def rotate(letters: tuple[int, ...], r: int) -> tuple[int, ...]:
    """A cyclic rotation: a conjugate braid, so its closure has the same framed H."""
    if not letters:
        return letters
    r %= len(letters)
    return letters[r:] + letters[:r]


def closure_crossings(strands: int, letters: tuple[int, ...]) -> tuple[list, int]:
    """Crossings (sign, under_in, over_in, under_out, over_out) of a braid closure.

    Returns the crossings and the number of strands that close up without
    meeting a crossing.
    """
    cur = list(range(strands))
    fresh = strands
    crossings = []
    for g in letters:
        i = abs(g)
        left, right = cur[i - 1], cur[i]
        p, q = fresh, fresh + 1
        fresh += 2
        if g > 0:
            crossings.append([1, right, left, p, q])
        else:
            crossings.append([-1, left, right, q, p])
        cur[i - 1], cur[i] = p, q
    ends = {cur[j]: j for j in range(strands) if cur[j] != j}
    free = sum(1 for j in range(strands) if cur[j] == j)
    for c in crossings:
        c[1:] = [ends.get(a, a) for a in c[1:]]
    return [tuple(c) for c in crossings], free


def relabeled_pd(crossings, free_loops: int, rng: Random) -> str:
    """PD text with arcs renamed at random and crossings shuffled.

    The diagram is the same up to relabeling, so every invariant is unchanged.
    The new names keep the order of the old ones: the skein walk starts from
    the smallest arc, and reordering arcs changes the whole recursion tree
    (cold T(2,40) took 1.0 s to 1.9 s over five random orders), which would
    make the seed, not the code, decide the timings.
    """
    arcs = sorted({a for c in crossings for a in c[1:]})
    names = dict(zip(arcs, sorted(rng.sample(range(1, 20 * len(arcs) + 2), len(arcs)))))
    order = [(s, *(names[a] for a in arcs_)) for s, *arcs_ in crossings]
    rng.shuffle(order)
    return pd_text(order, free_loops)


def pd_text(crossings, free_loops: int) -> str:
    parts = [f"X[{ui},{oi},{uo},{oo};{'+' if s > 0 else '-'}]" for s, ui, oi, uo, oo in crossings]
    return " ".join(parts + ["O"] * free_loops)

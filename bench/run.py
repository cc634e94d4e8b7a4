"""knitweave benchmark: four evaluation-route workloads, cold passes, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; NAME is one of ``skein_direct``,
``hecke_route``, ``hecke_basis``, ``campaign`` (see ``workloads.py``). The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every pass runs in a fresh interpreter (``worker.py``), so the package's
memo tables start empty without the benchmark touching private names. With
``--trace 0`` passes repeat until ``--seconds`` is spent and the run reports
medians over passes:

- ``wall_s``: time from the first operation to the last checked output.
- ``slowest_op_s``: the longest single operation of a pass.
- ``setup_s``: import of the package plus input build and parse, median of
  separate set-up-only interpreters and of every pass's own set-up.
- ``peak_rss_mb``: peak resident memory of the pass process.

The three times are in seconds at a fixed reference speed of the host: the
worker scales each operation's measured time by how much slower or faster a
fixed integer loop ran in samples taken while it ran (``worker.SpeedSampler``).
Shared hosts drift in speed by tens of percent within seconds and between
minutes, which a median over one run cannot remove; the scaled times follow
the package's own cost more closely. The measured times are printed beside
them.

Operations that raise or mismatch their reference count in ``failed``;
``failed / attempted`` is the failure share.

With ``--trace 1`` untraced and traced passes alternate (``spans.py``
wraps every public function of the package), and the run reports per-layer
counts, self times (at reference speed, scaled by the pass's median host
speed) and ratios, medians over traced passes, plus
``trace.overhead_frac``. A wrapper that records no calls on a workload that
must exercise it is an error. The traced run also runs the known-defect
probe, outside the timed passes, and prints a per-module self-time summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference as ref
from spans import MODULES
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_RUNS = 9
MIN_PASSES = 3
RUN_LIMIT_S = 170  # every child is killed before the run would pass this
PROBE_K = 70
PROBE_TIMEOUT_S = 60

# Layers each workload must exercise: its entry points and the names other
# modules bind with ``from ... import``. Zero calls there means a wrapper was
# bypassed. Inner layers that a planned optimisation may remove (planarity
# checks on validated templates, per-tuple compilation) are not listed.
REQUIRED = {
    "skein_direct": ("skein.homfly_framed", "diagram.canonical_raw", "diagram.planarity_check", "laurent.vz_mul"),
    "hecke_route": (
        "knitted.eval_hecke", "hecke.expand_word", "knitted.validate", "knitted.verify_theorem", "cli.main",
        "laurent.vz_mul", "laurent.z_mul",
    ),
    "hecke_basis": ("hecke.expand_word", "hecke.convert", "laurent.z_mul", "knitted.extreme_minus_fast"),
    "campaign": (
        "cli.main", "knitted.random_knitted", "knitted.validate", "knitted.verify_theorem", "knitted.eval_hecke",
        "skein.homfly_framed", "diagram.canonical_raw", "laurent.vz_mul",
    ),
}
SPAN_METRICS = (
    "diagram.canonical_raw", "skein.homfly_framed", "knitted.validate", "knitted.eval_hecke",
    "knitted.compile_diagram", "diagram.planarity_check", "hecke.expand_word", "hecke.convert",
    "laurent.z_mul", "braid.reduced_word", "laurent.vz_mul",
)


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.started = perf_counter()
        self.env = dict(os.environ)
        self.env.pop("KNITWEAVE_THREADS", None)
        if workload == "campaign":
            self.env["KNITWEAVE_THREADS"] = str(min(2, len(os.sched_getaffinity(0))))

    def remaining(self) -> float:
        return RUN_LIMIT_S - (perf_counter() - self.started)

    def child(self, *flags: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", str(self.workdir), *flags]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=self.env,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"pass {' '.join(flags)} did not finish in time") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setups(self) -> list[tuple[float, float]]:
        """(measured, reference-speed) set-up times of set-up-only interpreters."""
        runs = [self.child("--setup-only") for _ in range(SETUP_RUNS)]
        return [(r["setup_s"], r["setup_ref_s"]) for r in runs]

    def passes(self, seconds: float, flag_cycle: tuple[tuple[str, ...], ...]) -> list[tuple[tuple[str, ...], dict]]:
        """Run passes, cycling through flag sets, until the next would overrun ``seconds``."""
        out, start = [], perf_counter()
        while True:
            flags = flag_cycle[len(out) % len(flag_cycle)]
            t = perf_counter()
            out.append((flags, self.child(*flags)))
            took = perf_counter() - t
            elapsed = perf_counter() - start
            if len(out) >= max(MIN_PASSES, len(flag_cycle)) and elapsed + took > seconds:
                return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def probe(workdir: Path, remaining: float) -> tuple[str, bool]:
    """Known defect: cold ``knitweave homfly --pd`` on T(2,70) overflows the recursion.

    Returns a one-line outcome and whether the defect is still present. A
    run that now succeeds must print the T(2,70) recurrence value, or the
    probe raises.
    """
    crossings, free = ref.closure_crossings(2, (1,) * PROBE_K)
    path = workdir / f"t2_{PROBE_K}.pd"
    path.write_text(ref.pd_text(crossings, free) + "\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    t = perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "knitweave.cli", "homfly", "--pd", str(path), "--format", "json"],
                              capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=min(PROBE_TIMEOUT_S, max(1.0, remaining)))
    except subprocess.TimeoutExpired:
        return f"no answer within {PROBE_TIMEOUT_S} s (defect present)", True
    took = perf_counter() - t
    last = (proc.stderr.strip().splitlines() or [""])[-1]
    if proc.returncode == 0:
        got = ref.poly_from_json(json.loads(proc.stdout)["framed"])
        if got != ref.torus_2k(PROBE_K):
            raise BenchError(f"probe T(2,{PROBE_K}): exit 0 but the polynomial differs from the recurrence")
        return f"exit 0 after {took:.1f} s with the recurrence value (defect fixed)", False
    shown = "traceback" if "Traceback" in proc.stderr else "no traceback"
    return f"exit {proc.returncode} after {took:.1f} s, {shown}: {last} (defect present)", True


def _errors(results: list[dict]) -> tuple[int, int]:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["errors"]) for r in results)
    for r in results:
        for e in r["errors"]:
            print(f"FAILED {e}", file=sys.stderr)
    return attempted, failed


def end_to_end(runner: Runner, seconds: float) -> dict:
    setup = runner.setups()
    results = [r for _, r in runner.passes(seconds, ((),))]
    attempted, failed = _errors(results)
    setup += [(r["setup_s"], r["setup_ref_s"]) for r in results]
    print(f"{len(results)} passes, {len(setup)} set-ups; pass wall_s measured/at reference speed: "
          + " ".join(f"{r['wall_s']:.3f}/{r['wall_ref_s']:.3f}" for r in results))
    print(f"measured medians: wall {_median(r['wall_s'] for r in results):.4f} s, "
          f"slowest op {_median(max(r['op_s'].values()) for r in results):.4f} s, "
          f"set-up {_median(s for s, _ in setup):.4f} s; "
          f"median host speed {_median(r['speed'] for r in results):.3f} reference s per s")
    metrics = {
        "wall_s": (_median(r["wall_ref_s"] for r in results), "s"),
        "slowest_op_s": (_median(max(r["op_ref_s"].values()) for r in results), "s"),
        "setup_s": (_median(ref_s for _, ref_s in setup), "s"),
        "peak_rss_mb": (_median(r["peak_rss_mb"] for r in results), "MB"),
    }
    slow = max(results[0]["op_ref_s"], key=results[0]["op_ref_s"].get)
    print(f"slowest operation: {slow}; failed {failed}/{attempted}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer(runner: Runner, seconds: float) -> dict:
    runs = runner.passes(seconds, ((), ("--trace",)))
    plain = [r for flags, r in runs if not flags]
    traced = [r for flags, r in runs if flags]
    attempted, failed = _errors(plain + traced)

    def span(r, name, i):
        """Calls (i = 0) or self time at reference speed (i = 2) of a span."""
        value = r["spans"].get(name, [0, 0.0, 0.0])[i]
        return value * r["speed"] if i else value

    def counter(r, name):
        return r["counters"].get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    per_pass = {
        "diagram.canonical_raw.calls": lambda r: span(r, "diagram.canonical_raw", 0),
        "skein.nodes": lambda r: counter(r, "skein.nodes"),
        "skein.distinct_keys": lambda r: counter(r, "skein.distinct_keys"),
        "skein.memo_hit_ratio": lambda r: ratio(counter(r, "skein.nodes") - counter(r, "skein.distinct_keys"),
                                                counter(r, "skein.nodes")),
        "knitted.validate.accept_ratio": lambda r: ratio(counter(r, "knitted.validate.accepted"),
                                                         span(r, "knitted.validate", 0)),
        "knitted.random_knitted.self_s": lambda r: span(r, "knitted.random_knitted", 2),
        # the rejection-sampling loop itself lives one call down
        "knitted.random_template.self_s": lambda r: span(r, "knitted.random_template", 2),
        "cli.sampling_retries": lambda r: counter(r, "cli.sampling_retries"),
        "knitted.eval_hecke.tuples": lambda r: counter(r, "knitted.eval_hecke.tuples"),
        "knitted.tuple_hit_ratio": lambda r: ratio(
            counter(r, "knitted.eval_hecke.tuples") - counter(r, "knitted.tuple_misses"),
            counter(r, "knitted.eval_hecke.tuples")),
        "hecke.expand_word.terms": lambda r: counter(r, "hecke.expand_word.terms"),
        "cli.main.self_s": lambda r: span(r, "cli.main", 2),
        "trace.wall_s": lambda r: r["wall_ref_s"],
    }
    for name in SPAN_METRICS:
        per_pass.setdefault(f"{name}.calls", lambda r, name=name: span(r, name, 0))
        per_pass[f"{name}.self_s"] = lambda r, name=name: span(r, name, 2)
    for mod in MODULES:
        per_pass[f"module.{mod}.self_s"] = lambda r, mod=mod: sum(
            row[2] for n, row in r["spans"].items() if n.startswith(mod + ".")) * r["speed"]

    metrics = {}
    for name, get in per_pass.items():
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("ratio") else "count"
        metrics[name] = (_median(get(r) for r in traced), unit)
    untraced_wall = _median(r["wall_ref_s"] for r in plain)
    overhead = metrics["trace.wall_s"][0] / untraced_wall - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")

    bypassed = [n for n in REQUIRED[runner.workload] if any(span(r, n, 0) == 0 for r in traced)]
    for n in bypassed:
        print(f"ERROR: traced wrapper {n} recorded no calls on {runner.workload}", file=sys.stderr)

    outcome, present = probe(runner.workdir, runner.remaining())
    print(f"known-defect probe t2_{PROBE_K}_homfly_pd: {outcome}")
    metrics["probe.t2_70.defect"] = (int(present), "count")

    print(f"traced summary for {runner.workload} ({len(traced)} traced, {len(plain)} untraced passes): "
          f"wall {metrics['trace.wall_s'][0]:.3f} s traced vs {untraced_wall:.3f} s untraced, "
          f"overhead {overhead:+.1%}")
    total = sum(metrics[f"module.{m}.self_s"][0] for m in MODULES) or 1.0
    for mod in MODULES:
        self_s = metrics[f"module.{mod}.self_s"][0]
        print(f"  {mod:8s} self {self_s:8.3f} s  {self_s / total:6.1%}")
    return {"correct": failed == 0 and not bypassed, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "knitweave" / "__init__.py").is_file():
        print(f"no knitweave sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        seeds = runner.child("--setup-only")["seeds"]  # also writes the bytecode caches
        print(f"workload {args.workload} seed {args.seed}; derived inputs {json.dumps(seeds)}; replay: "
              f"python3 bench/run.py --workload {args.workload} --seed {args.seed} "
              f"--seconds {args.seconds:g} --trace {args.trace}")
        result = (per_layer if args.trace else end_to_end)(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

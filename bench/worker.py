"""One pass of a workload in a fresh interpreter; prints one JSON line.

Run by ``run.py``; a fresh process per pass keeps every cache of the package
cold without reaching into its private state.

The benchmark's hosts are shared, and their speed drifts by tens of percent
within a second and between minutes, alike for the package and for any other
Python code. So the worker samples the host's speed while it works: every
``SAMPLE_EVERY_S`` of wall time a timer signal runs a fixed integer loop
(``spin``) and records the processor time it took. Each time is reported
twice, as measured (``*_s``, with the samples' own time taken out) and scaled
to the reference speed (``*_ref_s``): an operation's time is multiplied by
``REF_SPIN_S`` times the median of ``1 / spin`` over the samples taken while
it ran, so one odd sample does not move it. An operation too short to hold a
sample uses the median over the whole pass. Set-up is scaled by longer spins
taken just before and after it. The loop builds no containers, so it neither
calls into the package nor grows with its heap. Usage:

    python3 bench/worker.py --workload NAME --seed N --workdir DIR [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, thread_time

ROOT = Path(__file__).resolve().parent.parent

SPIN_N = 250_000
# the reference speed: ``spin()`` in 35 ms, about a shared 2-core Xeon host
# under Python 3.11
REF_SPIN_S = 0.035
SAMPLE_N = SPIN_N // 10
SAMPLE_EVERY_S = 0.05


def spin(n: int = SPIN_N) -> float:
    """Processor seconds a fixed integer loop of ``n`` steps takes now: the host's
    current speed. Processor time of this thread, because in a campaign the
    pool threads may take the interpreter lock in the middle of the loop."""
    t = thread_time()
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFFFF
    return thread_time() - t


SPIN_START = spin()
T_START = perf_counter()


class SpeedSampler:
    """Times ``spin(SAMPLE_N)`` every ``SAMPLE_EVERY_S`` seconds from a SIGALRM handler."""

    def __init__(self, on_sample=None) -> None:
        self.samples: list[tuple[float, float]] = []  # (end time, seconds of the sample)
        self.on_sample = on_sample

    def _tick(self, signum, frame) -> None:
        took = spin(SAMPLE_N)
        self.samples.append((perf_counter(), took))
        if self.on_sample is not None:
            self.on_sample(took)

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, start: float, end: float) -> list[tuple[float, float]]:
        return [(t, s) for t, s in self.samples if start < t <= end]

    def measured(self, start: float, end: float) -> float:
        """Wall time from ``start`` to ``end`` less the samples taken in it, during
        which no thread of the package runs."""
        return end - start - sum(s for _, s in self.window(start, end))

    def scale(self, start: float | None = None, end: float | None = None) -> float:
        """Reference seconds per measured second, from the samples in the window (or all)."""
        spins = self.window(start, end) if start is not None else self.samples
        if not spins:
            spins = self.samples
        return statistics.median(REF_SPIN_S * SAMPLE_N / SPIN_N / s for _, s in spins)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import knitweave

    if Path(knitweave.__file__).resolve().parent != ROOT / "src" / "knitweave":
        print(f"knitweave imported from {knitweave.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    counters: dict[str, int] = {}
    ops, seeds = workloads.BUILDERS[args.workload](args.seed, args.workdir, counters)
    setup_s = perf_counter() - T_START
    result: dict = {
        "setup_s": setup_s,
        "setup_ref_s": setup_s * 2 * REF_SPIN_S / (SPIN_START + spin()),
        "seeds": seeds,
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    windows, errors = [], []  # (start, run finished, check finished) per operation
    with SpeedSampler(tracer.pause if tracer else None) as sampler:
        for op in ops:
            start = perf_counter()
            try:
                value = op.run()
                ran = perf_counter()
                error = op.check(value)
            except Exception:  # an operation that raises is a counted failure
                ran = perf_counter()
                error = f"{op.name}: raised\n{traceback.format_exc()}"
            windows.append((start, ran, perf_counter()))
            if error:
                errors.append(error)
    names = [op.name for op in ops]
    op_s = [sampler.measured(a, b) for a, b, _ in windows]
    op_ref_s = [t * sampler.scale(a, b) for t, (a, b, _) in zip(op_s, windows)]
    checked_s = [sampler.measured(a, c) for a, _, c in windows]
    result.update(
        wall_s=sum(checked_s),
        wall_ref_s=sum(t * sampler.scale(a, c) for t, (a, _, c) in zip(checked_s, windows)),
        op_s=dict(zip(names, op_s)),
        op_ref_s=dict(zip(names, op_ref_s)),
        speed=sampler.scale(),
        samples=len(sampler.samples),
        attempted=len(ops),
        errors=errors,
        counters=counters,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        table, counts, distinct = tracer.results()
        result["spans"] = table
        result["counters"].update(counts)
        result["counters"]["skein.distinct_keys"] = distinct
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

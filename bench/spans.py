"""Span tracing installed from outside the package, for the traced run.

Every public function of the traced modules (each module-level function
whose name has no leading underscore) plus ``LaurentZ.__mul__`` and
``LaurentVZ.__mul__`` is replaced by a wrapper. Python binds
``from m import f`` at import time, so a wrapper is installed on every loaded
``knitweave`` module attribute that holds the original function, not only on
the defining module.

A span's self time is its duration minus the time its child spans cover.
Campaign samples run on pool threads: each thread keeps its own span stack and
table, so the hot path takes no lock. A span that opens on an empty stack in a
worker thread is a child of whatever the main thread has open, and the main
thread subtracts the union of those intervals from its innermost span. Spans
are aggregated as they close (calls, total, self) instead of kept, because the
Laurent multiplications alone make millions of them. The worker's host-speed
samples run from a signal handler inside whatever spans are open; ``pause``
counts each one as a child of the innermost ones, so no self time holds them.
"""

from __future__ import annotations

import functools
import sys
import threading
from time import perf_counter

MODULES = ("laurent", "braid", "hecke", "diagram", "skein", "knitted", "cli")
EVAL_HECKE = "knitted.eval_hecke"


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.table: dict[str, list[float]] | None = None
        self.counts: dict[str, int] = {}
        self.keys: set = set()
        self.stack: list[list] = []


class Tracer:
    def __init__(self) -> None:
        self._state = _ThreadState()
        self._lock = threading.Lock()
        self._tables: list[tuple[dict, dict, set]] = []
        self._stacks: list[tuple[bool, list]] = []  # (is main thread, span stack)
        self._main = threading.main_thread()
        self._pool_spans: list[tuple[float, float]] = []

    def _local(self) -> _ThreadState:
        st = self._state
        if st.table is None:
            st.table = {}
            with self._lock:
                self._tables.append((st.table, st.counts, st.keys))
                self._stacks.append((threading.current_thread() is self._main, st.stack))
        return st

    def wrap(self, name: str, fn, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._local()
            stack = st.stack
            frame = [0.0, None, name]  # child time, tuple product, name
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                elif threading.current_thread() is not tracer._main:
                    with tracer._lock:
                        tracer._pool_spans.append((t0, t1))
                elif tracer._pool_spans:
                    own -= tracer._take_pool_time(t0, t1)
                row = st.table.get(name)
                if row is None:
                    row = st.table[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dur
                row[2] += own
            if post is not None:
                post(st, frame, stack[-1] if stack else None, result)
            return result

        return wrapper

    def pause(self, seconds: float) -> None:
        """Count ``seconds`` the main thread just spent outside the package as a
        child of every thread's innermost open span, so no self time holds them.

        Pool threads wait for the interpreter lock meanwhile. While one has a
        span open, the main thread's top-level span already subtracts that
        span's interval, so the main thread's own stack is left alone. Takes no
        lock: it runs in a signal handler that may have interrupted a holder.
        """
        pool_open = False
        for is_main, stack in list(self._stacks):
            top = stack[-1:]  # one step: a pool thread may pop between two
            if top and not is_main:
                top[0][0] += seconds
                pool_open = True
        top = self._state.stack[-1:]
        if top and not pool_open:
            top[0][0] += seconds

    def _take_pool_time(self, t0: float, t1: float) -> float:
        """Length of the union of pool-thread spans inside [t0, t1]; consumes them."""
        with self._lock:
            spans, self._pool_spans = sorted(self._pool_spans), []
        covered, end = 0.0, t0
        for a, b in spans:
            a, b = max(a, end), min(b, t1)
            if b > a:
                covered += b - a
                end = b
        return covered

    def install(self) -> None:
        """Wrap every target on every knitweave module that binds it."""
        from knitweave import cli, laurent  # noqa: F401  (cli imports every traced module)

        mods = [m for n, m in sorted(sys.modules.items()) if n == "knitweave" or n.startswith("knitweave.")]
        for short in MODULES:
            mod = sys.modules[f"knitweave.{short}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped = self.wrap(name, fn, _POST.get(name))
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            # skein's binding of canonical_raw is the memo key; record it
                            hook = _record_key if (m.__name__, key) == ("knitweave.skein", "canonical_raw") else None
                            setattr(m, key, self.wrap(name, fn, hook) if hook else wrapped)
        for cls, name in ((laurent.LaurentZ, "laurent.z_mul"), (laurent.LaurentVZ, "laurent.vz_mul")):
            fn = cls.__mul__
            wrapped = self.wrap(name, fn)
            for key, value in list(vars(cls).items()):
                if value is fn:  # __mul__ and its __rmul__ alias
                    setattr(cls, key, wrapped)

    def results(self) -> tuple[dict[str, list[float]], dict[str, float], int]:
        """(name -> [calls, total_s, self_s], counters, distinct memo keys)."""
        table: dict[str, list[float]] = {}
        counts: dict[str, float] = {}
        keys: set = set()
        with self._lock:
            parts = list(self._tables)
        for t, c, k in parts:
            for name, row in t.items():
                acc = table.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += row[i]
            for name, v in c.items():
                counts[name] = counts.get(name, 0) + v
            keys |= k
        return table, counts, len(keys)


def _count(st, name: str, amount: int = 1) -> None:
    st.counts[name] = st.counts.get(name, 0) + amount


def _post_expand_word(st, frame, parent, result) -> None:
    terms = len(result.coeffs)
    _count(st, "hecke.expand_word.terms", terms)
    if parent is not None and parent[2] == EVAL_HECKE:
        parent[1] = (parent[1] or 1) * terms


def _post_eval_hecke(st, frame, parent, result) -> None:
    _count(st, "knitted.eval_hecke.tuples", frame[1] or 0)


def _post_compile_diagram(st, frame, parent, result) -> None:
    if parent is not None and parent[2] == EVAL_HECKE:
        _count(st, "knitted.tuple_misses")


def _post_validate(st, frame, parent, result) -> None:
    _count(st, "knitted.validate.accepted", int(bool(result.ok)))


def _record_key(st, frame, parent, result) -> None:
    _count(st, "skein.nodes")
    st.keys.add(result)


_POST = {
    "hecke.expand_word": _post_expand_word,
    EVAL_HECKE: _post_eval_hecke,
    "knitted.compile_diagram": _post_compile_diagram,
    "knitted.validate": _post_validate,
}

"""Spans and the statistics the benchmark reports.

Nothing here knows about steklov: a Tracer records named spans (start, end,
parent, op id) around calls and can patch a module attribute so that every
call through it is recorded; a Speedometer follows the machine's speed; the
functions below turn spans and op latencies into the numbers the benchmark
prints.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    op: str | None  # spans of one op share this id
    parent: int | None
    start: float
    end: float


class Tracer:
    """In-memory span recorder; one per process, single-threaded.

    A span opened with ``leaf=True`` records nothing nested inside it, so a
    layer can be timed as a whole while its inner calls are also patched.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []
        self._leaf = 0
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str, leaf: bool = False) -> Span | None:
        if self._leaf:
            return None
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self.op, parent, self.clock(), math.nan)
        self.spans.append(span)
        self._stack.append(span.id)
        self._leaf += leaf
        return span

    def end(self, span: Span | None, leaf: bool = False) -> None:
        if span is None:
            return
        self._leaf -= leaf
        self._stack.pop()
        span.end = self.clock()

    @contextmanager
    def span(self, name: str, leaf: bool = False):
        token = self.begin(name, leaf)
        try:
            yield
        finally:
            self.end(token, leaf)

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def adopt(self, spans: list[dict]) -> None:
        """Append spans recorded by a child process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for s in spans:
            self.spans.append(Span(
                base + s["id"], s["name"], self.op,
                parent if s["parent"] is None else base + s["parent"],
                s["start"], s["end"],
            ))

    def wrap(self, module, attr: str, name: str, leaf: bool = False) -> None:
        """Record a span around every call made through ``module.attr``."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            token = self.begin(name, leaf)
            try:
                return original(*args, **kwargs)
            finally:
                self.end(token, leaf)

        self.replace(module, attr, traced)

    def replace(self, module, attr: str, fn) -> None:
        """Set ``module.attr`` to ``fn`` until ``restore``."""
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, fn)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def span_dicts(spans: list[Span]) -> list[dict]:
    return [s.__dict__.copy() for s in spans]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, each span minus the time its children cover."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - child[s.id]
    return dict(out)


def total_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, children included."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.end - s.start
    return dict(out)


def span_counts(spans: list[Span]) -> Counter:
    return Counter(s.name for s in spans)


# -- machine speed ---------------------------------------------------------------

# Kernel time that defines speed 1.0. Timings are reported at this speed.
REFERENCE_KERNEL_S = 0.003
_KERNEL_MATS = [m + m.T for m in np.random.default_rng(0).standard_normal((40, 10, 10))]


def kernel() -> float:
    """Seconds taken by a fixed mix of the work the package does: dict,
    sort and string work, Fraction sums and small symmetric eigensolves."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(4000):
        d[i % 97] = d.get(i % 97, 0) + i * i
    sorted(str(k) + "x" for k in range(2000))
    sum(Fraction(1, k) for k in range(1, 120))
    for m in _KERNEL_MATS:
        np.linalg.eigh(m)
        np.linalg.solve(m + 20 * np.eye(10), m)
    return time.perf_counter() - t0


class Speedometer:
    """Times the kernel between ops, at most once per ``interval`` seconds.

    A shared machine can run twice as slow for minutes at a time, and change
    speed within seconds. Dividing an op's time by the kernel time measured
    around it removes most of that, so runs made at different times compare.
    It follows ops in this process best: a child process may run on the
    other core, whose speed changes on its own from second to second.
    """

    def __init__(self, interval: float = 0.25, margin: float = 1.0,
                 kernel=kernel, clock=time.perf_counter):
        self.interval = interval
        self.margin = margin
        self.kernel = kernel
        self.clock = clock
        self.times: list[float] = []
        self.samples: list[float] = []  # median of three kernel runs each

    def tick(self, force: bool = False) -> None:
        now = self.clock()
        if force or not self.times or now - self.times[-1] >= self.interval:
            sample = statistics.median(self.kernel() for _ in range(3))
            self.times.append(self.clock())
            self.samples.append(sample)

    def slowness(self, start: float, end: float) -> float:
        """Median kernel time over the reference, from the samples taken
        within ``margin`` of [start, end]. A pass ticks before its first op
        and after any op that ends ``interval`` after the last tick, so every
        op has a sample within ``interval`` of its start."""
        lo = bisect.bisect_left(self.times, start - self.margin)
        hi = bisect.bisect_right(self.times, end + self.margin)
        return statistics.median(self.samples[lo:hi]) / REFERENCE_KERNEL_S

    def overall(self) -> float:
        """Median kernel time over the reference, all samples."""
        return self.slowness(-math.inf, math.inf)


# -- latencies -----------------------------------------------------------------


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten of ``n`` samples beyond it.

    Below 20 samples no such percentile is at or above the median; the
    tail is then the maximum (100).
    """
    if n < 20:
        return 100.0
    return 100.0 * (n - 10) / n


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(round(pct * len(ordered) / 100.0, 9)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


def key_medians(outcomes: list[Outcome]) -> dict[str, float]:
    """Median latency of each op key over the passes of a run.

    A run makes every op of a pass once per pass, in another order each
    time, so a slow spell of the machine lands on different ops in each pass
    and the per-key median leaves it out.
    """
    samples: dict[str, list[float]] = defaultdict(list)
    for o in outcomes:
        samples[o.key].append(o.seconds)
    return {k: statistics.median(v) for k, v in samples.items()}


# -- outcomes ------------------------------------------------------------------


@dataclass
class Outcome:
    """One op: ``failed`` when the program reported an error or a negative
    verdict where a positive one is expected, or an output check failed;
    ``wrong`` when an output the program reported as good fails a check."""

    key: str
    kind: str
    seconds: float
    start: float = 0.0
    failed: bool = False
    wrong: bool = False
    note: str = ""


def tally(outcomes: list[Outcome]) -> dict:
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not any(o.wrong for o in outcomes),
        "ok_frac": (attempted - failed) / attempted if attempted else math.nan,
        "failed_keys": sorted({o.key for o in outcomes if o.failed}),
    }


# -- python -X importtime ------------------------------------------------------


def import_times(stderr: str, packages: tuple[str, ...]) -> dict[str, float]:
    """Seconds spent importing each package, from ``-X importtime`` output.

    A package's time is the cumulative time of its outermost modules: those
    imported while no other module of the same package was being imported.
    Lines come children first, nesting shown by two spaces per level.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        raw = name[1:]
        rows.append(((len(raw) - len(raw.lstrip(" "))) // 2, raw.strip(), int(cumulative)))
    out = {p: 0.0 for p in packages}
    stack: list[str] = []
    for depth, name, cumulative in reversed(rows):
        del stack[depth:]
        top = name.split(".")[0]
        if top in out and all(a.split(".")[0] != top for a in stack):
            out[top] += cumulative / 1e6
        stack.append(name)
    return out

"""Where the traced run records spans in the steklov package, and the
per-layer metrics it computes from them.

Spans are taken from outside: the traced run replaces public functions in
the package's modules with recording wrappers (the package itself is not
changed) and restores them afterwards. Cache hits and misses are read from
the cache directory before each enumeration, not from the package.
"""

from __future__ import annotations

import math
from pathlib import Path

import steklov
from spans import Tracer, self_times, span_counts, total_times

# Entry points of the extremal layer the workloads call; their self time is
# the layer's own work (reduction and matching) once sibling layers are out.
VERIFY_SPANS = ("extremal.verify", "extremal.verify_clump", "extremal.verify_sigma2")


def cache_file_exists(cache_dir: Path, kind: str, n: int) -> bool:
    return any(cache_dir.glob(f"{kind}-n{n}-*"))


class Instruments:
    """Spans, counters and observed sigma values for one process."""

    def __init__(self, tracer: Tracer, cache_dir: Path):
        self.tracer = tracer
        self.cache_dir = Path(cache_dir)
        self.seen: set[tuple[str, int]] = set()
        self.sigmas: list[float] = []
        self.min_gap = math.inf
        self._enumerators = {
            "trees": steklov.enumeration.enumerate_trees,
            "connected": steklov.enumeration.enumerate_connected_graphs,
        }

    def enumerate(self, kind: str, n: int):
        """Enumerate a class, naming the span by where its codes come from."""
        if (kind, n) in self.seen:
            name = "enumeration.memory"
        elif cache_file_exists(self.cache_dir, kind, n):
            name = "enumeration.cache_load"
            self.tracer.count("enumeration.cache_hits")
        else:
            name = f"enumeration.generate_{kind}"
            self.tracer.count("enumeration.cache_misses")
        with self.tracer.span(name, leaf=True):
            stream = self._enumerators[kind](n)
        self.seen.add((kind, n))
        self.tracer.count("enumeration.classes", len(stream))
        return stream

    def install(self) -> None:
        t = self.tracer
        ext, spec, enum = steklov.extremal, steklov.spectral, steklov.enumeration
        t.wrap(ext, "predicted_bound", "extremal.predict")
        t.wrap(ext, "canonical_code", "enumeration.recode")
        t.wrap(ext, "steklov_spectrum", "spectral.spectrum")
        t.wrap(spec, "dtn_matrix", "spectral.assemble")
        t.wrap(enum, "tree_from_code", "enumeration.decode")
        t.wrap(enum, "graph_from_code", "enumeration.decode")
        t.wrap(ext, "clump_number", "geometry.clump")
        t.wrap(steklov.clumps, "clump_number", "geometry.clump")
        t.replace(ext, "enumerate_trees", lambda n: self.enumerate("trees", n))
        t.replace(ext, "enumerate_connected_graphs",
                  lambda n: self.enumerate("connected", n))
        sigma_value = ext.sigma_value

        def observed(g, i):
            value = sigma_value(g, i)
            self.sigmas.append(value)
            return value

        t.replace(ext, "sigma_value", observed)

    def record_gap(self, minimum: float, tol: float) -> None:
        """Gap between a sweep's minimum and its best value outside the
        argmin set (values within ``tol`` of the minimum)."""
        outside = [v for v in self.sigmas if minimum + tol < v < math.inf]
        if outside:
            self.min_gap = min(self.min_gap, min(outside) - minimum)


def layer_metrics(tracer: Tracer, setup_counts: dict, passes: int,
                  min_gap: float) -> dict[str, float]:
    """Per-layer figures of a traced run: set-up once plus the mean pass."""
    setup = [s for s in tracer.spans if s.op == "setup"]
    rest = [s for s in tracer.spans if s.op != "setup"]

    def per_run(fn):
        a, b = fn(setup), fn(rest)
        return lambda name: a.get(name, 0) + b.get(name, 0) / passes

    own, total, calls = per_run(self_times), per_run(total_times), per_run(span_counts)

    def count(name):
        before = setup_counts.get(name, 0)
        return before + (tracer.counts[name] - before) / passes

    return {
        "enumeration.generate_trees_s": own("enumeration.generate_trees"),
        "enumeration.generate_connected_s": own("enumeration.generate_connected"),
        "enumeration.cache_load_s": own("enumeration.cache_load"),
        "enumeration.decode_s": own("enumeration.decode"),
        "enumeration.recode_s": own("enumeration.recode"),
        "enumeration.classes": count("enumeration.classes"),
        "enumeration.cache_hits": count("enumeration.cache_hits"),
        "enumeration.cache_misses": count("enumeration.cache_misses"),
        "spectral.assemble_s": own("spectral.assemble"),
        "spectral.solve_s": own("spectral.spectrum"),
        "spectral.calls": calls("spectral.spectrum"),
        "extremal.predict_s": own("extremal.predict"),
        "extremal.verify_s": sum(total(n) for n in VERIFY_SPANS),
        "extremal.reduce_s": sum(own(n) for n in VERIFY_SPANS),
        "extremal.failed_verdicts": count("extremal.failed_verdicts"),
        "extremal.min_gap": 0.0 if math.isinf(min_gap) else min_gap,
        "geometry.clump_s": own("geometry.clump"),
        "clumps.typeab_s": own("clumps.typeab"),
    }

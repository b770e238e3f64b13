"""Benchmark of the steklov package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --check

A run sets up, measures whole passes of the workload for S seconds and
prints, as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics BENCHMARK.json lists, the end-to-end ones with
``--trace 0`` and the per-layer ones with ``--trace 1``. The line before it
records the machine and the run. ``--check`` makes one untimed pass of every
workload, prints every end-to-end metric with its unit and names each
failed op; it exits 1 when an output check fails.

Times are reported at a reference speed of the machine (see
spans.Speedometer), with the raw figures in the line before the result.
Runs read and write only inside the checkout: class caches and child-process temporary files go
to .bench-tmp/ (removed at exit), spans of traced runs to .bench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from spans import (
    Tracer, import_times, key_medians, median, percentile, span_dicts, tail_percentile,
    tally,
)

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
MIN_PASSES = 2
PROBE_REPS = 3
IMPORT_PACKAGES = ("steklov", "scipy", "networkx", "mpmath")


def git_commit(root: Path) -> str:
    try:
        ref = (root / ".git" / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        if (root / ".git" / name).exists():
            return (root / ".git" / name).read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(root: Path) -> dict:
    import mpmath
    import networkx
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "default") for v in threads},
        "commit": git_commit(root),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def kind_medians(passes) -> dict[str, float]:
    kinds: dict[str, list[float]] = {}
    for p in passes:
        for o in p.outcomes:
            kinds.setdefault(o.kind, []).append(o.seconds)
    return {k: median(v) for k, v in kinds.items()}


def latency_metrics(setup: list[float], outcomes) -> dict[str, float]:
    latencies = list(key_medians(outcomes).values())
    return {
        "setup_s": median(setup),
        "pass_s": sum(latencies),
        "op_median_ms": median(latencies) * 1e3,
        "op_tail_ms": percentile(latencies, tail_percentile(len(latencies))) * 1e3,
    }


def failed_ops(outcomes) -> list[str]:
    return sorted({f"{o.key}: {o.note}" for o in outcomes if o.failed})


def end_to_end(setups, passes, speed) -> tuple[dict, dict, dict]:
    """End-to-end metric values, the tally of outcomes, and run details.

    Times are at the reference speed: each set-up and op is divided by the
    slowness measured around it. The details keep the raw figures.
    """
    outcomes = [o for p in passes for o in p.outcomes]
    scaled = [replace(o, seconds=o.seconds / speed.slowness(o.start, o.start + o.seconds))
              for o in outcomes]
    counts = tally(outcomes)
    values = latency_metrics([t / slow for t, slow in setups], scaled)
    values["ok_frac"] = counts["ok_frac"]
    values["peak_rss_mb"] = peak_rss_mb()
    details = {
        "raw": latency_metrics([t for t, _ in setups], outcomes),
        "setup_runs_s": [t for t, _ in setups],
        "setup_slowness": [slow for _, slow in setups],
        "slowness": speed.overall(),
        "passes": len(passes),
        "ops_per_pass": len(passes[0].outcomes),
        "tail_percentile": tail_percentile(len(key_medians(outcomes))),
        "pass_raw_s": [p.seconds for p in passes],
        "pass_slowness": [p.slowness for p in passes],
        "kind_median_s": kind_medians(passes),
        "failed_ops": failed_ops(outcomes),
    }
    return values, counts, details


def probes(ctx) -> dict[str, float]:
    """Import times from ``-X importtime`` and the wall time of ``--help``."""
    imports, startup = [], []
    for _ in range(PROBE_REPS):
        _, proc = ctx.python(["-X", "importtime", "-c", "import steklov"])
        if proc.returncode != 0:
            raise RuntimeError("import steklov failed")
        imports.append(import_times(proc.stderr.decode(), IMPORT_PACKAGES))
        seconds, proc = ctx.python(["-m", "steklov.cli", "--help"])
        if proc.returncode != 0:
            raise RuntimeError("steklov.cli --help failed")
        startup.append(seconds)
    out = {f"import.{p}_s": median([d[p] for d in imports]) for p in IMPORT_PACKAGES}
    out["cli.startup_s"] = median(startup)
    return out


def cli_metrics(passes) -> dict[str, float]:
    kinds = kind_medians(passes)
    out = {f"cli.{k[len('cmd_'):]}_s": kinds.get(k, 0.0) for k in
           ("cmd_verify_small", "cmd_verify", "cmd_verify_jobs2", "cmd_sweep")}
    jobs2 = kinds.get("cmd_verify_jobs2")
    out["cli.jobs2_speedup"] = kinds["cmd_verify"] / jobs2 if jobs2 else 0.0
    return out


def traced_run(wl, ctx, rng, seconds: float) -> tuple[dict, dict, dict]:
    """Per-layer metrics: spans over the set-up (its process included) and
    the passes. A workload whose set-up caches every class the `cli`
    commands read also runs those commands once, for the cli layer. Times
    are divided by the median slowness of the run."""
    from layers import Instruments, layer_metrics
    from workloads import COMMANDS, Cli, measure

    tracer = Tracer()
    tracer.op = "setup"
    ctx.setup(wl.specs, tracer)
    inst = Instruments(tracer, ctx.cache_dir)
    ctx.inst = inst
    inst.install()
    wl.prepare()
    tracer.restore()
    setup_counts = dict(tracer.counts)
    reference = None
    if wl.in_process:  # the same pass untraced, for the tracing overhead
        ctx.inst = None
        (reference,) = measure(wl, rng, 0, None)
        ctx.inst = inst
    inst.install()
    passes = measure(wl, rng, seconds, tracer)
    tracer.restore()
    values = layer_metrics(tracer, setup_counts, len(passes), inst.min_gap)
    values.update(probes(ctx))
    values.update(cli_metrics(passes))
    outcomes = [o for p in passes for o in p.outcomes]
    if {spec for _, spec in COMMANDS.values()} <= set(wl.specs):
        ctx.inst = None
        cli = Cli(ctx)
        cli.prepare()
        cli_passes = measure(cli, rng, 0, None)
        values.update(cli_metrics(cli_passes))
        outcomes += cli_passes[0].outcomes
    slowness = ctx.speed.overall()
    values = {k: v / slowness if k.endswith("_s") else v for k, v in values.items()}
    if reference:
        traced = median([p.seconds / p.slowness for p in passes])
        values["trace.overhead_frac"] = traced / (reference.seconds / reference.slowness) - 1
    else:
        values["trace.overhead_frac"] = 0.0
    details = {"passes": len(passes), "slowness": slowness,
               "kind_median_s": kind_medians(passes), "failed_ops": failed_ops(outcomes)}
    out = ctx.root / ".bench-out"
    out.mkdir(exist_ok=True)
    (out / f"spans-{wl.name}.json").write_text(json.dumps(span_dicts(tracer.spans)))
    return values, tally(outcomes), details


def run(name: str, seed: int, seconds: float, trace: bool, tmp: Path):
    from workloads import WORKLOADS, Context, measure

    ctx = Context(ROOT, tmp)
    wl = WORKLOADS[name](ctx)
    rng = random.Random(seed)
    if trace:
        values, counts, details = traced_run(wl, ctx, rng, seconds)
    else:
        setup_times = [ctx.setup(wl.specs) for _ in range(SETUP_REPS)]
        wl.prepare()
        passes = measure(wl, rng, seconds, None, MIN_PASSES)
        values, counts, details = end_to_end(setup_times, passes, ctx.speed)
    counts["correct"] = counts["correct"] and not ctx.problems
    details["setup_problems"] = ctx.problems
    return values, counts, details


def check(spec: dict, tmp: Path) -> int:
    from workloads import WORKLOADS, Context, measure

    ok = True
    for name, cls in WORKLOADS.items():
        ctx = Context(ROOT, Path(tempfile.mkdtemp(dir=tmp)))
        wl = cls(ctx)
        setup = ctx.setup(wl.specs)
        wl.prepare()
        passes = measure(wl, random.Random(0), 0, None)
        values, counts, details = end_to_end([setup], passes, ctx.speed)
        print(f"[{name}]")
        for m in spec["end_to_end"]:
            print(f"  {m['name']:<24} {values[m['name']]:.6g} {m['unit']}")
        print(f"  {'failed_frac':<24} {counts['failed']}/{counts['attempted']}")
        for line in details["failed_ops"]:
            print(f"    failed {line}")
        for line in ctx.problems:
            print(f"    set-up {line}")
        for kind, seconds in details["kind_median_s"].items():
            print(f"  {kind + '_s':<24} {seconds:.6g} s (raw)")
        good = counts["correct"] and not ctx.problems
        print(f"  outputs {'correct' if good else 'WRONG'}")
        ok = ok and good
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", action="store_true")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "steklov" / "__init__.py").is_file():
        print("error: this checkout has no src/steklov package", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import steklov

    if Path(steklov.__file__).resolve().parent != ROOT / "src" / "steklov":
        print(f"error: imported steklov from {steklov.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if not args.check and args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    (ROOT / ".bench-tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".bench-tmp"))
    try:
        if args.check:
            return check(spec, tmp)
        values, counts, details = run(args.workload, args.seed, args.seconds,
                                      bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".bench-tmp").rmdir()
        except OSError:
            pass
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"machine": machine(ROOT), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                      **details}))
    print(json.dumps({
        "correct": counts["correct"],
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

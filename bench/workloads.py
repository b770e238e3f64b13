"""The four workloads of the steklov benchmark and the checks on their outputs.

Each workload is one client in a closed loop: a pass is a fixed list of ops
(the seed only permutes their order) and each op starts when the previous
one has ended. See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import count
from pathlib import Path
from time import perf_counter
from typing import Callable

import steklov
from steklov.enumeration import free_tree_count

from layers import Instruments, cache_file_exists
from spans import Outcome, Speedometer, Tracer

# OEIS A001349: connected simple graphs on n vertices, up to isomorphism.
A001349 = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
PROC_TIMEOUT_S = 120.0


def parse_spec(spec: str) -> tuple[str, int]:
    kind, n = spec.split(":")
    return kind, int(n)


def class_count(kind: str, n: int) -> int:
    """Expected class size, from oracles independent of the generators."""
    return free_tree_count(n) if kind == "trees" else A001349[n]


class Failed(Exception):
    """An op failed; ``wrong`` when the program had reported success."""

    def __init__(self, note: str, wrong: bool = False):
        super().__init__(note)
        self.wrong = wrong


@dataclass
class Op:
    key: str
    kind: str
    run: Callable[[], None]


@dataclass
class Pass:
    seconds: float
    outcomes: list[Outcome]
    slowness: float  # median kernel time over the reference during the pass


def run_proc(argv, env, cwd) -> subprocess.CompletedProcess:
    """Run a command in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PROC_TIMEOUT_S)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


class Context:
    """What the workloads of one run share: paths, the environment of child
    processes, the class cache and, in a traced run, the instruments."""

    def __init__(self, root: Path, tmp: Path):
        self.root = root
        self.tmp = tmp
        self.cache_dir = tmp
        self.inst: Instruments | None = None
        self.speed = Speedometer()
        self.problems: list[str] = []  # set-up outputs that failed a check
        self._dirs = count()

    def fresh_dir(self, prefix: str) -> Path:
        path = self.tmp / f"{prefix}-{next(self._dirs)}"
        path.mkdir()
        return path

    def env(self, cache_dir: Path) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), env.get("PYTHONPATH")) if p)
        env["STEKLOV_CACHE_DIR"] = str(cache_dir)
        env["TMPDIR"] = str(self.tmp)
        return env

    def python(self, args: list[str], cache_dir: Path | None = None):
        """Run the checkout's interpreter; returns (wall seconds, process)."""
        t0 = perf_counter()
        proc = run_proc([sys.executable, *args], self.env(cache_dir or self.cache_dir),
                        self.tmp)
        return perf_counter() - t0, proc

    def span(self, name: str):
        return self.inst.tracer.span(name) if self.inst else nullcontext()

    def count(self, name: str) -> None:
        if self.inst:
            self.inst.tracer.count(name)

    def child(self, cache_dir: Path, specs, decode: bool = False, trace: bool = False):
        """Run bench/child.py; returns (wall seconds, its JSON report)."""
        args = [str(self.root / "bench" / "child.py"), str(cache_dir), *specs]
        args += ["--decode"] * decode + ["--trace"] * trace
        seconds, proc = self.python(args, cache_dir)
        if proc.returncode != 0:
            raise RuntimeError(f"child.py {' '.join(specs)} exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-2000:]}")
        return seconds, json.loads(proc.stdout.splitlines()[-1])

    def setup(self, specs, tracer: Tracer | None = None) -> tuple[float, float]:
        """One set-up: a fresh process imports steklov and fills an empty
        class cache with every class the workload reads. The run then reads
        the cache of its last set-up. Returns seconds and slowness; with a
        tracer, the process's spans and counters are added to it."""
        cache_dir = self.fresh_dir("cache")
        self.speed.tick(force=True)
        start = perf_counter()
        seconds, report = self.child(cache_dir, specs, trace=tracer is not None)
        self.speed.tick(force=True)
        if tracer:
            tracer.adopt(report["spans"])
            tracer.counts.update(report["counts"])
        for spec, c in report["classes"].items():
            if c["count"] != class_count(*parse_spec(spec)):
                self.problems.append(f"set-up {spec}: {c['count']} classes")
        self.cache_dir = cache_dir
        os.environ["STEKLOV_CACHE_DIR"] = str(cache_dir)
        return seconds, self.speed.slowness(start, start + seconds)

    def enumerate(self, spec: str):
        """A class read in this process, its size checked."""
        kind, n = parse_spec(spec)
        if self.inst:
            stream = self.inst.enumerate(kind, n)
        elif kind == "trees":
            stream = steklov.enumerate_trees(n)
        else:
            stream = steklov.enumerate_connected_graphs(n)
        if len(stream) != class_count(kind, n):
            self.problems.append(f"{spec} read back {len(stream)} classes")
        return stream


def run_op(op: Op, tracer: Tracer | None, pass_no: int) -> Outcome:
    if tracer:
        tracer.op = f"{op.key}#{pass_no}"
    t0 = perf_counter()
    failed, wrong, note = True, False, ""
    try:
        op.run()
        failed = False
    except Failed as exc:
        wrong, note = exc.wrong, str(exc)
    except Exception as exc:  # the program raised: a failed op, not a crash
        note = f"{type(exc).__name__}: {exc}"
        if not isinstance(exc, steklov.SteklovError):
            traceback.print_exc(file=sys.stderr)
    return Outcome(op.key, op.kind, perf_counter() - t0, t0, failed, wrong, note)


def measure(wl, rng, seconds: float, tracer: Tracer | None,
            min_passes: int = 1) -> list[Pass]:
    """Whole passes until ``seconds`` have passed, at least ``min_passes``;
    the kernel runs between ops to measure each pass's slowness."""
    speed = wl.ctx.speed
    passes: list[Pass] = []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        speed.tick(force=True)
        t0 = perf_counter()
        outcomes = []
        for op in wl.pass_ops(rng):
            outcomes.append(run_op(op, tracer, len(passes)))
            speed.tick()
        wl.finish_pass(outcomes)
        t1 = perf_counter()
        speed.tick(force=True)
        passes.append(Pass(t1 - t0, outcomes, speed.slowness(t0, t1)))
    return passes


# -- workloads -----------------------------------------------------------------


class Workload:
    name = ""
    specs: tuple[str, ...] = ()  # classes the set-up puts in the cache
    in_process = False  # ops call the package in the benchmark's process

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def prepare(self) -> None:
        """In-process part of set-up, after the cache is filled."""

    def pass_ops(self, rng) -> list[Op]:
        raise NotImplementedError

    def finish_pass(self, outcomes: list[Outcome]) -> None:
        """Checks that span several ops of one pass."""


class Grid(Workload):
    """verify_extremal for every supported (n, i, class), warm class cache."""

    name = "grid"
    specs = tuple(f"trees:{n}" for n in range(3, 13)) + tuple(
        f"connected:{n}" for n in range(3, 8))
    in_process = True

    def prepare(self):
        for spec in self.specs:
            self.ctx.enumerate(spec)

    def pass_ops(self, rng):
        ops = []
        for spec in self.specs:
            kind, n = parse_spec(spec)
            for i in range(2, n):
                ops.append(Op(f"{kind}:{n}:{i}", "verify", partial(self.verify, kind, n, i)))
        rng.shuffle(ops)
        return ops

    def verify(self, kind: str, n: int, i: int) -> None:
        inst = self.ctx.inst
        if inst:
            inst.sigmas.clear()
        with self.ctx.span("extremal.verify"):
            report = steklov.verify_extremal(n, i, kind)
        if inst:
            inst.record_gap(report.minimum, report.tol)
        if report.class_size != class_count(kind, n):
            raise Failed(f"class_size {report.class_size}", wrong=True)
        if not (report.match and report.bound_ok):
            self.ctx.count("extremal.failed_verdicts")
            raise Failed(f"match={report.match} bound_ok={report.bound_ok}")


def components(n: int, edges) -> list[list[int]]:
    """Vertex sets of the components of an edge list (union-find)."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for u, v in edges:
        root[find(u)] = find(v)
    parts: dict[int, list[int]] = {}
    for v in range(n):
        parts.setdefault(find(v), []).append(v)
    return sorted(parts.values())


def check_type_ab(g, t, k: int) -> None:
    """Re-check a type A/B classification against its witnesses."""
    m = len(g.edges)
    has = {"TypeA": (True, False), "TypeB": (False, True), "Both": (True, True)}
    if has.get(t.verdict) != (t.type_a is not None, t.type_b is not None):
        raise Failed(f"verdict {t.verdict} disagrees with its witnesses", wrong=True)

    def split(removed) -> list[list[int]]:
        edges = {(u, v) for u, v, _ in g.edges}
        gone = {tuple(sorted(e)) for e in removed}
        if not gone <= edges:
            raise Failed("witness removes a non-edge", wrong=True)
        return components(g.n, edges - gone)

    a = t.type_a
    if a and not (m + 1 == a.r * k and len(a.removed) == a.r - 1
                  and sorted(sorted(c) for c in a.components) == split(a.removed)
                  and all(len(c) == k for c in a.components)):
        raise Failed("type A witness does not hold", wrong=True)
    b = t.type_b
    if b:
        cert = b.certificate
        parts = sorted(sorted(c.vertices) for c in cert.components)
        if not ((b.r - 1) * k <= m <= b.r * k - 1 and len(cert.removed) == b.r - 2
                and parts == split(cert.removed)
                and all(c.clump_number <= k - 1 for c in cert.components)):
            raise Failed("type B witness does not hold", wrong=True)


class Certs(Workload):
    """Clump, sigma_2 and type A/B certificates for every tree at n = 12."""

    name = "certs"
    specs = ("trees:12",)
    in_process = True
    K = 4

    def prepare(self):
        self.trees = list(self.ctx.enumerate("trees:12"))

    def pass_ops(self, rng):
        ops = [Op(f"tree:{j}", "certify", partial(self.certify, g))
               for j, g in enumerate(self.trees)]
        rng.shuffle(ops)
        return ops

    def certify(self, g) -> None:
        with self.ctx.span("extremal.verify_clump"):
            clump = steklov.verify_steklov_clump(g)
        with self.ctx.span("extremal.verify_sigma2"):
            sigma2 = steklov.verify_sigma2_tree(g)
        with self.ctx.span("clumps.typeab"):
            typeab = steklov.classify_type_AB(g, self.K)
        if not (clump.holds and clump.rigidity_consistent
                and sigma2.holds and sigma2.dumbbell_match is not False):
            self.ctx.count("extremal.failed_verdicts")
            raise Failed(f"clump holds={clump.holds} rigid={clump.rigidity_consistent}; "
                         f"sigma2 holds={sigma2.holds} dumbbell={sigma2.dumbbell_match}")
        check_type_ab(g, typeab, self.K)


# Op kind -> (arguments of `python -m steklov.cli`, the class it reads).
COMMANDS = {
    "cmd_verify_small": (["verify", "--n", "9", "--i", "2"], "trees:9"),
    "cmd_verify": (["verify", "--n", "12", "--i", "2"], "trees:12"),
    "cmd_verify_jobs2": (["verify", "--n", "12", "--i", "2", "--jobs", "2"], "trees:12"),
    "cmd_sweep": (["sweep", "--n", "7", "--i", "3", "--class", "connected",
                   "--format", "csv"], "connected:7"),
}


class Cli(Workload):
    """`python -m steklov.cli` verify and sweep commands, warm class cache."""

    name = "cli"
    specs = ("trees:9", "trees:12", "connected:7")

    def prepare(self):
        self.stdout: dict[str, bytes] = {}

    def pass_ops(self, rng):
        ops = [Op(kind, kind, partial(self.command, kind)) for kind in COMMANDS]
        rng.shuffle(ops)
        return ops

    def command(self, kind: str) -> None:
        args, spec = COMMANDS[kind]
        cls, n = parse_spec(spec)
        if self.ctx.inst:
            hit = cache_file_exists(self.ctx.cache_dir, cls, n)
            self.ctx.count("enumeration.cache_hits" if hit else "enumeration.cache_misses")
        with self.ctx.span(f"cli.{kind}"):
            _, proc = self.ctx.python(["-m", "steklov.cli", *args])
        self.stdout[kind] = proc.stdout
        if proc.returncode != 0:
            raise Failed(f"exit {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace').strip()[-300:]}")
        if kind == "cmd_sweep":
            self.check_sweep(proc.stdout, class_count(cls, n))
        else:
            self.check_verify(proc.stdout, class_count(cls, n))

    @staticmethod
    def check_verify(stdout: bytes, size: int) -> None:
        try:
            payload = json.loads(stdout)["payload"]
            verdict = (payload["class_size"], payload["match"], payload["bound_ok"])
        except (ValueError, KeyError, TypeError):
            raise Failed("unreadable verify report", wrong=True) from None
        if verdict != (size, True, True):
            raise Failed(f"exit 0 with class_size, match, bound_ok = {verdict}", wrong=True)

    @staticmethod
    def check_sweep(stdout: bytes, size: int) -> None:
        lines = stdout.decode().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        codes = [r[0] for r in rows]
        try:
            ok = (lines[:1] == ["code,sigma"] and len(rows) == size
                  and all(len(r) == 2 and float(r[1]) >= 0 for r in rows)
                  and codes == sorted(set(codes)))
        except ValueError:
            ok = False
        if not ok:
            raise Failed("sweep table has the wrong rows", wrong=True)

    def finish_pass(self, outcomes):
        if self.stdout.get("cmd_verify") != self.stdout.get("cmd_verify_jobs2"):
            for o in outcomes:
                if o.kind == "cmd_verify_jobs2":
                    o.failed = o.wrong = True
                    o.note = "stdout differs between --jobs 1 and --jobs 2"
        self.stdout.clear()


class Enum(Workload):
    """Cold enumeration of each class in a fresh process, then a reload of
    each from disk in another. Two reloads, not one, so that the four ops
    differ enough in length that the median op stays the same one."""

    name = "enum"
    CLASSES = {"trees:15": "enum_trees", "connected:7": "enum_connected"}

    def pass_ops(self, rng):
        cache_dir = self.ctx.fresh_dir("enum")
        self.cold: dict[str, str] = {}
        cold = [Op(f"cold:{spec}", f"{kind}_cold", partial(self.cold_op, cache_dir, spec))
                for spec, kind in self.CLASSES.items()]
        warm = [Op(f"warm:{spec}", f"{kind}_warm", partial(self.warm_op, cache_dir, spec))
                for spec, kind in self.CLASSES.items()]
        rng.shuffle(cold)
        rng.shuffle(warm)
        return cold + warm

    def child(self, cache_dir, specs, decode=False):
        _, report = self.ctx.child(cache_dir, specs, decode, trace=bool(self.ctx.inst))
        if self.ctx.inst:
            self.ctx.inst.tracer.adopt(report["spans"])
            self.ctx.inst.tracer.counts.update(report["counts"])
        return report

    def cold_op(self, cache_dir: Path, spec: str) -> None:
        c = self.child(cache_dir, [spec])["classes"][spec]
        if c["count"] != class_count(*parse_spec(spec)):
            raise Failed(f"{c['count']} classes", wrong=True)
        self.cold[spec] = c["digest"]

    def warm_op(self, cache_dir: Path, spec: str) -> None:
        report = self.child(cache_dir, [spec], decode=True)
        c = report["classes"][spec]
        if spec not in self.cold:
            raise Failed(f"no cold codes of {spec} to compare")
        if (c["count"] != class_count(*parse_spec(spec))
                or c["digest"] != self.cold[spec] or c["bad"]):
            raise Failed(f"{spec}: warm classes differ from cold ones", wrong=True)
        if report["counts"].get("enumeration.cache_hits", 0) != 1:
            raise Failed("classes were not read from the disk cache")


WORKLOADS = {w.name: w for w in (Grid, Cli, Enum, Certs)}

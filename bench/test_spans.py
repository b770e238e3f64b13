"""Tests of the benchmark's own statistics, on synthetic spans.

    python3 -m pytest bench/test_spans.py
"""

import math
import random
import types

import pytest

from spans import (
    REFERENCE_KERNEL_S,
    Outcome,
    Speedometer,
    Tracer,
    import_times,
    key_medians,
    percentile,
    self_times,
    tail_percentile,
    tally,
    total_times,
)


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    t = Tracer(clock=fake_clock(0, 1, 2, 3, 4, 5, 6, 10))
    with t.span("verify"):          # 0 .. 10
        with t.span("spectrum"):    # 1 .. 4
            with t.span("assemble"):  # 2 .. 3
                pass
        with t.span("decode"):      # 5 .. 6
            pass
    own = self_times(t.spans)
    assert own == {"verify": 6, "spectrum": 2, "assemble": 1, "decode": 1}
    assert sum(own.values()) == 10
    assert total_times(t.spans)["spectrum"] == 3
    assert [s.parent for s in t.spans] == [None, 0, 1, 0]


def test_self_time_sums_spans_of_one_name():
    t = Tracer(clock=fake_clock(0, 1, 2, 4, 5, 8))
    with t.span("verify"):          # 0 .. 8
        for _ in range(2):          # 1 .. 2 and 4 .. 5
            with t.span("decode"):
                pass
    assert self_times(t.spans) == {"verify": 6, "decode": 2}


def test_leaf_span_hides_nested_spans():
    t = Tracer(clock=fake_clock(0, 5, 6, 7))
    with t.span("generate", leaf=True):
        with t.span("decode"):
            pass
    assert [s.name for s in t.spans] == ["generate"]
    assert self_times(t.spans) == {"generate": 5}
    with t.span("after"):  # the leaf is closed: spans are recorded again
        pass
    assert [(s.name, s.parent) for s in t.spans] == [("generate", None), ("after", None)]


def test_spans_share_the_op_id_and_close_on_error():
    t = Tracer(clock=fake_clock(0, 1, 2, 3))
    t.op = "trees:6:3#0"
    with pytest.raises(ValueError):
        with t.span("verify"):
            with t.span("predict"):
                raise ValueError
    assert {s.op for s in t.spans} == {"trees:6:3#0"}
    assert [(s.start, s.end) for s in t.spans] == [(0, 3), (1, 2)]


def test_wrap_records_calls_and_restore_undoes_it():
    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original = mod.f
    t = Tracer(clock=fake_clock(0, 1))
    t.wrap(mod, "f", "layer.f")
    assert mod.f(1) == 2
    t.restore()
    assert mod.f is original
    assert [(s.name, s.start, s.end) for s in t.spans] == [("layer.f", 0, 1)]


def test_adopted_child_spans_hang_under_the_open_span():
    t = Tracer(clock=fake_clock(0, 9))
    t.op = "warm#0"
    child = [
        {"id": 0, "name": "enumeration.cache_load", "parent": None, "start": 1, "end": 2},
        {"id": 1, "name": "enumeration.decode", "parent": None, "start": 3, "end": 5},
        {"id": 2, "name": "inner", "parent": 1, "start": 3, "end": 4},
    ]
    with t.span("op"):
        t.adopt(child)
    assert [(s.id, s.parent, s.op) for s in t.spans] == [
        (0, None, "warm#0"), (1, 0, "warm#0"), (2, 0, "warm#0"), (3, 2, "warm#0")]
    assert self_times(t.spans) == {
        "op": 6, "enumeration.cache_load": 1, "enumeration.decode": 1, "inner": 1}


@pytest.mark.parametrize("n", [20, 70, 551])
def test_tail_leaves_exactly_ten_samples_beyond_it(n):
    values = [float(v) for v in range(n)]
    random.Random(n).shuffle(values)
    assert sum(v > percentile(values, tail_percentile(n)) for v in values) == 10


def test_key_medians_drop_a_slow_spell_on_one_pass():
    fast = {"trees:12:2": 0.30, "trees:7:3": 0.01, "connected:7:2": 0.50}
    passes = [dict(fast), dict(fast), dict(fast)]
    passes[1]["trees:12:2"] *= 2  # the machine was slow during this op
    passes[2]["connected:7:2"] *= 3
    outcomes = [Outcome(k, "verify", v) for p in passes for k, v in p.items()]
    assert key_medians(outcomes) == fast


def test_tail_choice():
    assert tail_percentile(70) == pytest.approx(100 * 60 / 70)
    assert tail_percentile(20) == 50
    assert tail_percentile(19) == 100  # too few ops: the maximum
    assert percentile([3.0, 1.0, 2.0], tail_percentile(3)) == 3.0
    assert percentile([5.0], 50) == 5.0


def test_failure_counting():
    outcomes = [
        Outcome("trees:5:2", "verify", 0.1),
        Outcome("trees:6:3", "verify", 0.1, failed=True, note="match=False"),
        Outcome("trees:6:3", "verify", 0.1, failed=True, note="match=False"),
        Outcome("trees:7:2", "verify", 0.1),
    ]
    t = tally(outcomes)
    assert (t["attempted"], t["failed"], t["correct"]) == (4, 2, True)
    assert t["ok_frac"] == 0.5
    assert t["failed_keys"] == ["trees:6:3"]
    outcomes.append(Outcome("warm", "enum_warm", 1.0, failed=True, wrong=True))
    t = tally(outcomes)
    assert (t["failed"], t["correct"]) == (3, False)
    assert math.isnan(tally([])["ok_frac"])


class FakeMachine:
    """A clock the test moves by hand and a kernel whose time it sets."""

    def __init__(self):
        self.now = 0.0
        self.kernel_s = REFERENCE_KERNEL_S

    def clock(self):
        return self.now

    def kernel(self):
        return self.kernel_s


def test_speedometer_samples_at_most_once_per_interval():
    m = FakeMachine()
    speed = Speedometer(interval=0.25, kernel=m.kernel, clock=m.clock)
    for now in (0.0, 0.1, 0.2, 0.3, 0.4, 0.6):
        m.now = now
        speed.tick()
    assert speed.times == [0.0, 0.3, 0.6]
    speed.tick(force=True)
    assert len(speed.times) == 4


def test_slowness_uses_samples_near_the_op():
    m = FakeMachine()
    speed = Speedometer(interval=0.0, margin=1.0, kernel=m.kernel, clock=m.clock)
    for now, slow in [(0, 1.0), (1, 1.0), (2, 1.0), (10, 2.0), (11, 2.0), (12, 2.0)]:
        m.now, m.kernel_s = now, slow * REFERENCE_KERNEL_S
        speed.tick()
    assert speed.slowness(0.5, 1.5) == pytest.approx(1.0)
    assert speed.slowness(10.5, 11.5) == pytest.approx(2.0)
    assert speed.slowness(2.5, 9.5) == pytest.approx(1.5)  # samples at 2 and 10
    assert speed.overall() == pytest.approx(1.5)


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   steklov.errors
import time:       200 |        200 |       scipy
import time:      1000 |       1300 |     scipy.linalg
import time:        50 |       1400 |   steklov.spectral
import time:       500 |        500 |       networkx.utils
import time:      2000 |       2500 |     networkx
import time:        10 |       2600 |   steklov.enumeration
import time:         5 |       4105 | steklov
import time:        70 |         70 | scipy.sparse
"""


def test_import_times_take_outermost_modules_of_each_package():
    got = import_times(IMPORTTIME, ("steklov", "scipy", "networkx", "mpmath"))
    assert got == pytest.approx({
        "steklov": 4105e-6,
        "scipy": (1300 + 70) * 1e-6,  # scipy inside scipy.linalg is not counted twice
        "networkx": 2500e-6,
        "mpmath": 0.0,
    })

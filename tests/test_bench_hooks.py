"""The benchmark's traced runs (``bench/run.py --trace 1``) replace package
attributes, found by name, with recording wrappers. A refactor that drops
or renames one of them must fail here, not only in a traced run."""

from pathlib import Path

from steklov import extremal

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_instruments_patch_live_attributes_and_restore_them(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import Instruments
    from spans import Tracer

    tracer = Tracer()
    try:
        Instruments(tracer, tmp_path).install()
        patched = list(tracer._patches)  # (module, attribute, original)
        assert patched and all(getattr(module, attr) is not original
                               for module, attr, original in patched)
        assert extremal.verify_extremal(6, 2, "trees").match
        names = {span.name for span in tracer.spans}
        assert {"extremal.predict", "enumeration.generate_trees"} <= names
    finally:
        tracer.restore()
    assert all(getattr(module, attr) is original for module, attr, original in patched)

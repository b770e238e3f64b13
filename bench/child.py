"""One fresh process of the benchmark: import steklov, enumerate classes.

    python bench/child.py CACHE_DIR [--decode] [--trace] KIND:N ...

Each KIND:N (``trees:15``, ``connected:7``) is enumerated through
STEKLOV_CACHE_DIR=CACHE_DIR; with ``--decode`` every class is also decoded
and checked to be an n-vertex tree or connected graph. Prints one JSON line:
per class its count and the SHA-256 of its codes, the cache counters, and
with ``--trace`` the spans. A fresh process is the only way to see cold enumeration and disk loads,
because the package keeps classes in memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("cache_dir")
    p.add_argument("specs", nargs="*")
    p.add_argument("--decode", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    os.environ["STEKLOV_CACHE_DIR"] = args.cache_dir
    sys.path.insert(0, str(ROOT / "src"))

    from layers import Instruments
    from spans import Tracer, span_dicts

    tracer = Tracer()
    inst = Instruments(tracer, Path(args.cache_dir))
    if args.trace:
        inst.install()
    classes = {}
    for spec in args.specs:
        kind, n = spec.split(":")
        n = int(n)
        tracer.op = spec
        stream = inst.enumerate(kind, n)
        codes = list(stream.codes)
        bad = 0
        if args.decode:
            decoded = 0
            for g in stream:
                decoded += 1
                shaped = g.is_tree() if kind == "trees" else g.is_connected()
                bad += not (g.n == n and shaped)
            bad += abs(decoded - len(codes))
        classes[spec] = {
            "count": len(codes),
            "digest": hashlib.sha256("\n".join(codes).encode()).hexdigest(),
            "bad": bad,
        }
    tracer.restore()
    print(json.dumps({
        "classes": classes,
        "counts": dict(tracer.counts),
        "spans": span_dicts(tracer.spans) if args.trace else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

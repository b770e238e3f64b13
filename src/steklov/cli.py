"""Command-line front end.

Commands: spectrum, family, clump, clump-cert, nodal, verify, sweep,
selftest. Reports are JSON (CSV available for verify and sweep), written to
stdout or to the file --out names (family's --out is its graph file);
logging goes to stderr. Exit codes: 0 ok/certified, 1 usage error,
2 assertion/bound failure, 3 rigidity mismatch, 4 unsupported range.
No command takes a tolerance: ``verify`` decides exactly, and ``nodal``
checks each domain within the fixed ``geometry.NODAL_TOL`` (1e-8).
Floats are printed with 17 significant digits, in CSV too, and exact
rationals as "p/q" alongside their decimal value, so identical inputs give
byte-identical reports regardless of --jobs. A CSV field that holds a list
of codes holds them joined by single spaces.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, is_dataclass
from fractions import Fraction

from . import __version__
from .errors import (
    CertificationError,
    OutOfSupportedRangeError,
    SteklovError,
)

log = logging.getLogger("steklov")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2
EXIT_RIGIDITY = 3
EXIT_RANGE = 4
JOBS_HELP = "accepted (N >= 1) and ignored: every sweep runs in one process"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage failures must exit 1, not argparse's 2
        raise UsageError(message)


# -- deterministic JSON and CSV with 17-significant-digit floats -------------------


def _fmt_float(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        return '"nan"'
    return format(x, ".17g")


def _jsonify(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, Fraction):
        return _jsonify({"exact": str(obj), "value": float(obj)})
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_jsonify(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_jsonify(v) for v in obj) + "]"
    if hasattr(obj, "tolist"):  # a numpy scalar or array, as Python values
        return _jsonify(obj.tolist())
    if is_dataclass(obj):
        return _jsonify(asdict(obj))
    return json.dumps(str(obj))


def _csv_value(v) -> str:
    """One CSV field: a code list joined by single spaces, a float with 17
    significant digits (+inf as ``inf``), anything else as ``str``."""
    if isinstance(v, list):
        return " ".join(v)
    return format(v, ".17g") if isinstance(v, float) else str(v)


def _write(text: str, out_path: str | None) -> None:
    """The one report writer: to the file ``out_path`` when given, else stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(command: str, payload: dict, out_path: str | None = None) -> None:
    report = {"command": command, "version": __version__, "payload": payload}
    _write(_jsonify(report) + "\n", out_path)


# -- command handlers --------------------------------------------------------------
# Each imports the layers it runs when it runs, so --help and usage errors
# load no numpy and no computing layer.


def _cmd_spectrum(args) -> int:
    from .graph import load_graph
    from .spectral import steklov_spectrum

    res = steklov_spectrum(load_graph(args.graph))
    _emit(
        "spectrum",
        {
            "kind": res.kind,
            "boundary": list(res.support),
            "eigenvalues": [float(v) for v in res.eigenvalues],
        },
        args.out,
    )
    return EXIT_OK


def _spec_count(spec: str, num: str) -> int:
    """The N of a ``name:N`` family spec."""
    try:
        return int(num)
    except ValueError:
        raise UsageError(f"{spec!r}: N must be an integer") from None


def _parse_base(spec: str):
    from .families import build_cycle, build_path

    name, _, num = spec.partition(":")
    if name == "path":
        return build_path(_spec_count(spec, num)).graph
    if name == "cycle":
        return build_cycle(_spec_count(spec, num)).graph
    raise UsageError(f"unknown comb base {spec!r} (use path:N or cycle:N)")


def _parse_tooth(spec: str):
    from .families import rooted_path

    if spec == "edge":
        return rooted_path(1)
    name, _, num = spec.partition(":")
    if name == "path":
        return rooted_path(_spec_count(spec, num))
    raise UsageError(f"unknown tooth {spec!r} (use edge or path:N)")


def _cmd_family(args) -> int:
    from .families import (
        build_broom,
        build_comb,
        build_cycle,
        build_dumbbell,
        build_path,
        build_star_paths,
        comb_spectrum,
    )
    from .graph import graph_to_dict, save_graph

    if args.family == "broom":
        fam = build_broom(args.l, args.i, args.d)
        params = {"l": args.l, "i": args.i, "d": args.d}
    elif args.family == "dumbbell":
        fam = build_dumbbell(args.d0, args.i, args.d1)
        params = {"d0": args.d0, "i": args.i, "d1": args.d1}
    elif args.family == "star":
        fam = build_star_paths(args.r, args.arm_length)
        params = {"r": args.r, "l": args.arm_length}
    elif args.family == "comb":
        base, tooth = _parse_base(args.base), _parse_tooth(args.tooth)
        fam = build_comb(base, tooth)
        params = {"base": args.base, "tooth": args.tooth}
    elif args.family == "path":
        fam = build_path(args.n)
        params = {"n": args.n}
    else:  # "cycle": argparse requires one of these families
        fam = build_cycle(args.n)
        params = {"n": args.n}
    if args.out:
        save_graph(fam.graph, args.out)
    payload = {
        "family": fam.family,
        "params": params,
        "landmarks": {k: v for k, v in fam.landmarks.items()},
        "graph": graph_to_dict(fam.graph),
    }
    if args.family == "comb":
        vals, _ = comb_spectrum(base, tooth)
        payload["closed_form_spectrum"] = [float(v) for v in vals]
    _emit("family", payload)
    return EXIT_OK


def _cmd_clump(args) -> int:
    from .geometry import clump_number
    from .graph import load_graph

    g = load_graph(args.graph)
    rep = clump_number(g)
    point = (
        {"vertex": rep.point.vertex}
        if rep.point.is_vertex
        else {"edge": list(rep.point.edge), "offset": rep.point.offset}
    )
    _emit(
        "clump",
        {
            "clump_number": rep.clump_number,
            "equilibrium_point": point,
            "clumps": [
                {"length": c.length, "vertices": list(c.vertices)}
                for c in rep.clumps
            ],
        },
        args.out,
    )
    return EXIT_OK


def _certificate_payload(cert) -> dict:
    return {
        "removed_edges": [list(e) for e in cert.removed],
        "bound": cert.bound,
        "components": [
            {
                "vertices": list(c.vertices),
                "clump_number": c.clump_number,
                "sub_k": None if c.sub_k is None else c.sub_k.value,
            }
            for c in cert.components
        ],
    }


def _cmd_clump_cert(args) -> int:
    from . import clumps as clumps_mod
    from .graph import load_graph

    g = load_graph(args.graph)
    if args.sub_k:
        result = clumps_mod.find_removal_sub_k(g, args.r, args.k)
        if isinstance(result, clumps_mod.StarException):
            _emit("clump-cert", {"verdict": "star-exception", "center": result.center,
                                 "r": result.r, "k": result.k})
            return EXIT_OK
        _emit("clump-cert", {"verdict": "removal", "certificate": _certificate_payload(result)})
        return EXIT_OK
    cert = clumps_mod.find_removal_for_clump(g, args.r, args.k, half=args.half)
    if cert is None:
        _emit("clump-cert", {"verdict": "not-found"})
        return EXIT_ASSERTION
    _emit("clump-cert", {"verdict": "removal", "certificate": _certificate_payload(cert)})
    return EXIT_OK


def _cmd_nodal(args) -> int:
    from .geometry import verify_nodal_theorem
    from .graph import load_graph
    from .spectral import steklov_spectrum

    g = load_graph(args.graph)
    res = steklov_spectrum(g)
    sigma, f = res.eigenpair(args.eig)
    report = verify_nodal_theorem(g, sigma, f)
    payload = {
        "eig_index": args.eig,
        "sigma": float(sigma),
        "degenerate_zero_set": report.degenerate,
        "domains": report.verdicts,
        "ok": report.ok,
    }
    _emit("nodal", payload, args.out)
    return EXIT_OK if report.ok or report.degenerate else EXIT_ASSERTION


def _cmd_verify(args) -> int:
    from . import extremal

    t0 = time.monotonic()
    report = extremal.verify_extremal(args.n, args.i, args.graph_class)
    payload = {
        "n": args.n,
        "i": args.i,
        "class": args.graph_class,
        "case": report.target.case,
        "bound": report.target.bound,
        "bound_exact": report.target.bound_str,
        "class_size": report.class_size,
        "minimum": report.minimum,
        "argmin": list(report.argmin_codes),
        "predicted": list(report.predicted_codes),
        "characterized": report.target.characterized,
        "bound_ok": report.bound_ok,
        "match": report.match,
    }
    if args.format == "csv":
        rows = "".join(f"{k},{_csv_value(v)}\n" for k, v in payload.items())
        _write("field,value\n" + rows, args.out)
    else:  # timestamp-normalized for reproducibility
        _emit("verify", {**payload, "seconds": 0.0}, args.out)
    log.info("verify finished in %.3fs", time.monotonic() - t0)
    if not report.bound_ok:
        return EXIT_ASSERTION
    if not report.match:
        return EXIT_RIGIDITY
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from . import extremal

    pairs = extremal.sweep(args.n, args.i, args.graph_class).rows
    if args.format == "csv":
        rows = "".join(f"{code},{_csv_value(val)}\n" for code, val in pairs)
        _write("code,sigma\n" + rows, args.out)
    else:
        _emit(
            "sweep",
            {
                "n": args.n,
                "i": args.i,
                "class": args.graph_class,
                "rows": [{"code": c, "sigma": v} for c, v in pairs],
            },
            args.out,
        )
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from . import clumps as clumps_mod
    from . import extremal
    from .families import build_path, comb_spectrum, lambda_value, rooted_path
    from .geometry import clump_number

    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            log.warning("selftest %s raised: %s", name, exc)
            ok = False
        checks.append({"name": name, "ok": ok})

    check("lambda-spot-values", lambda: (
        lambda_value(2) == Fraction(1, 2)
        and lambda_value(3) == Fraction(1, 3)
        and lambda_value(4) == Fraction(1, 5)
        and lambda_value(Fraction(10, 3)) == Fraction(3, 11)
    ))
    check("sigma2-trees-n7", lambda: extremal.verify_extremal(7, 2, "trees").match)
    check("comb-anchor", lambda: abs(
        comb_spectrum(build_path(3).graph, rooted_path(1))[0][2] - 0.75
    ) <= 1e-9)
    check("clump-p4", lambda: clump_number(
        build_path(4).graph
    ).clump_number == Fraction(3, 2))
    check("typeAB-p4", lambda: clumps_mod.classify_type_AB(
        build_path(4).graph, 2
    ).verdict == "TypeA")
    ok = all(c["ok"] for c in checks)
    _emit("selftest", {"checks": checks, "ok": ok})
    return EXIT_OK if ok else EXIT_ASSERTION


# -- argument parsing ---------------------------------------------------------------


def _build_parser() -> _Parser:
    p = _Parser(prog="steklov", description=__doc__)
    p.add_argument("--cache-dir", help="override STEKLOV_CACHE_DIR")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="Steklov spectrum of a graph file")
    sp.add_argument("graph")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_spectrum)

    fp = sub.add_parser("family", help="build a named family graph")
    fsub = fp.add_subparsers(dest="family", required=True)
    b = fsub.add_parser("broom")
    b.add_argument("--l", required=True)
    b.add_argument("--i", type=int, required=True)
    b.add_argument("--d", type=int, required=True)
    d = fsub.add_parser("dumbbell")
    d.add_argument("--d0", type=int, required=True)
    d.add_argument("--i", type=int, required=True)
    d.add_argument("--d1", type=int, required=True)
    s = fsub.add_parser("star")
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--arm-length", type=int, required=True)
    c = fsub.add_parser("comb")
    c.add_argument("--base", required=True, help="path:N or cycle:N")
    c.add_argument("--tooth", required=True, help="edge or path:N")
    for name in ("path", "cycle"):
        q = fsub.add_parser(name)
        q.add_argument("--n", type=int, required=True)
    for q in fsub.choices.values():
        q.add_argument("--out")
    fp.set_defaults(func=_cmd_family)

    cp = sub.add_parser("clump", help="clump number and equilibrium point")
    cp.add_argument("graph")
    cp.add_argument("--out")
    cp.set_defaults(func=_cmd_clump)

    cc = sub.add_parser("clump-cert", help="edge-removal certificates")
    cc.add_argument("graph")
    cc.add_argument("--r", type=int, required=True)
    cc.add_argument("--k", type=int, required=True)
    cc.add_argument("--half", action="store_true")
    cc.add_argument("--sub-k", dest="sub_k", action="store_true")
    cc.set_defaults(func=_cmd_clump_cert)

    np_ = sub.add_parser("nodal", help="nodal-domain theorem for one eigenpair")
    np_.add_argument("graph")
    np_.add_argument("--eig", type=int, default=2)
    np_.add_argument("--out")
    np_.set_defaults(func=_cmd_nodal)

    for name, help_, func in (("verify", "certify an extremal sweep", _cmd_verify),
                              ("sweep", "emit the per-class eigenvalue table", _cmd_sweep)):
        q = sub.add_parser(name, help=help_)
        q.add_argument("--n", type=int, required=True)
        q.add_argument("--i", type=int, required=True)
        q.add_argument("--class", dest="graph_class", default="trees",
                       choices=["trees", "connected"])
        q.add_argument("--format", default="json", choices=["json", "csv"])
        q.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
        q.add_argument("--out")
        q.set_defaults(func=func)

    st = sub.add_parser("selftest", help="quick battery of internal checks")
    st.set_defaults(func=_cmd_selftest)
    return p


def main(argv=None) -> int:
    root = logging.getLogger()
    level, handlers = root.level, root.handlers[:]
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    saved = os.environ.get("STEKLOV_CACHE_DIR")
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.verbose:
            root.setLevel(logging.INFO)
        if args.cache_dir is not None:
            os.environ["STEKLOV_CACHE_DIR"] = args.cache_dir
        if getattr(args, "jobs", 1) < 1:
            raise UsageError("--jobs must be >= 1")
        return args.func(args)
    except (SteklovError, UsageError, OSError) as exc:
        code = (EXIT_RANGE if isinstance(exc, OutOfSupportedRangeError)
                else EXIT_ASSERTION if isinstance(exc, CertificationError) else EXIT_USAGE)
        sys.stderr.write(f"ERROR {code}: {exc}\n")
        return code
    finally:  # --cache-dir, -v and the stderr handler hold for this run only
        if saved is None:
            os.environ.pop("STEKLOV_CACHE_DIR", None)
        else:
            os.environ["STEKLOV_CACHE_DIR"] = saved
        root.setLevel(level)
        for handler in root.handlers[:]:
            if handler not in handlers:
                root.removeHandler(handler)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

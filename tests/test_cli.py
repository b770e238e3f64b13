import argparse
import dataclasses
import hashlib
import importlib
import inspect
import json
import logging
import os
import pkgutil
import shutil
import site
import subprocess
import sys
import venv
from pathlib import Path

import numpy as np
import pytest

import steklov
from steklov import cli, clumps, families
from steklov.errors import CertificationError
from steklov.families import build_cycle, build_dumbbell, build_path, build_star_paths
from steklov.graph import Role, graph_to_dict, load_graph, save_graph

from conftest import path_graph
from test_extremal import GRID


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_path(tmp_path, n, name="g.json", roles=None):
    g = path_graph(n)
    if roles is not None:
        g = g.with_roles(roles)
    p = tmp_path / name
    save_graph(g, p)
    return str(p)


def test_spectrum_command(tmp_path, capsys):
    code, out, _ = run(capsys, ["spectrum", write_path(tmp_path, 2)])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "spectrum"
    assert doc["payload"]["eigenvalues"] == [0.0, 2.0]


def test_spectrum_dirichlet_variant(tmp_path, capsys):
    roles = [Role.DIRICHLET, Role.INTERIOR, Role.BOUNDARY]
    path = write_path(tmp_path, 3, roles=roles)
    code, out, _ = run(capsys, ["spectrum", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["kind"] == "dirichlet"
    assert abs(doc["payload"]["eigenvalues"][0] - 0.5) <= 1e-12


def test_spectrum_missing_file(capsys):
    code, _, err = run(capsys, ["spectrum", "/nonexistent/graph.json"])
    assert code == 1
    assert err.startswith("ERROR 1:")


def test_usage_error(capsys):
    code, _, err = run(capsys, ["family", "broom", "--l", "1"])
    assert code == 1
    assert "ERROR 1:" in err


def test_family_round_trip(tmp_path, capsys):
    out_file = tmp_path / "broom.json"
    code, out, _ = run(
        capsys,
        ["family", "broom", "--l", "1", "--i", "1", "--d", "2",
         "--out", str(out_file)],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["family"] == "broom"
    assert out_file.exists()
    code2, out2, _ = run(capsys, ["spectrum", str(out_file)])
    assert code2 == 0
    lam1 = json.loads(out2)["payload"]["eigenvalues"][0]
    assert abs(lam1 - 0.2) <= 1e-9


@pytest.mark.parametrize("length", ["1e400", "1e-400"])
def test_family_refuses_weights_a_graph_file_cannot_hold(tmp_path, capsys, length):
    # 1/l rounds to 0.0 as a float, or is an integer beyond the float range:
    # a file written with either would not load again.
    out_file = tmp_path / "broom.json"
    code, out, err = run(
        capsys,
        ["family", "broom", "--l", length, "--i", "1", "--d", "2",
         "--out", str(out_file)],
    )
    assert (code, out) == (1, "")
    assert err.startswith("ERROR 1:")
    assert not out_file.exists()


def test_family_comb(capsys):
    code, out, _ = run(
        capsys, ["family", "comb", "--base", "path:3", "--tooth", "edge"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["family"] == "comb"
    vals = doc["payload"]["closed_form_spectrum"]
    assert any(abs(v - 0.75) <= 1e-9 for v in vals)


@pytest.mark.parametrize("argv,build,params", [
    (["dumbbell", "--d0", "2", "--i", "3", "--d1", "1"],
     lambda: build_dumbbell(2, 3, 1), {"d0": 2, "i": 3, "d1": 1}),
    (["star", "--r", "3", "--arm-length", "2"], lambda: build_star_paths(3, 2), {"r": 3, "l": 2}),
    (["path", "--n", "5"], lambda: build_path(5), {"n": 5}),
    (["cycle", "--n", "5"], lambda: build_cycle(5), {"n": 5}),
], ids=["dumbbell", "star", "path", "cycle"])
def test_family_prints_and_saves_the_builders_graph(tmp_path, capsys, argv, build, params):
    fam = build()
    code, out, err = run(capsys, ["family", *argv])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"command": "family", "version": steklov.__version__, "payload": {
        "family": fam.family, "params": params, "landmarks": fam.landmarks,
        "graph": graph_to_dict(fam.graph)}}
    # --out writes the graph file and leaves stdout as it was
    out_file = tmp_path / "family.json"
    assert run(capsys, ["family", *argv, "--out", str(out_file)]) == (0, out, "")
    assert load_graph(out_file) == fam.graph


def test_clump_command(tmp_path, capsys):
    code, out, _ = run(capsys, ["clump", write_path(tmp_path, 4)])
    assert code == 0
    doc = json.loads(out)
    cn = doc["payload"]["clump_number"]
    assert cn == {"exact": "3/2", "value": 1.5}
    assert doc["payload"]["equilibrium_point"]["edge"] == [1, 2]


def test_clump_cert_found(tmp_path, capsys):
    code, out, _ = run(
        capsys, ["clump-cert", write_path(tmp_path, 7), "--r", "1", "--k", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["verdict"] == "removal"


def test_clump_cert_not_found(tmp_path, capsys):
    code, out, _ = run(
        capsys, ["clump-cert", write_path(tmp_path, 8), "--r", "0", "--k", "1"]
    )
    assert code == 2
    assert json.loads(out)["payload"]["verdict"] == "not-found"


def test_clump_cert_star_exception(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["clump-cert", write_path(tmp_path, 5), "--r", "0", "--k", "2", "--sub-k"],
    )
    assert code == 0
    assert json.loads(out)["payload"]["verdict"] == "star-exception"


def test_clump_cert_sub_k_removal(tmp_path, capsys):
    # P7 at r = 1, k = 2: one cut leaves P3 and P4, each sub-2
    code, out, err = run(
        capsys, ["clump-cert", write_path(tmp_path, 7), "--r", "1", "--k", "2", "--sub-k"],
    )
    assert (code, err) == (0, "")
    assert out == (
        '{"command": "clump-cert", "version": "%s", "payload": {"verdict": "removal", '
        '"certificate": {"removed_edges": [[2, 3]], "bound": null, "components": ['
        '{"vertices": [0, 1, 2], "clump_number": {"exact": "1", "value": 1}, "sub_k": true}, '
        '{"vertices": [3, 4, 5, 6], "clump_number": {"exact": "3/2", "value": 1.5}, '
        '"sub_k": true}]}}}\n' % steklov.__version__
    )


def test_nodal_command(tmp_path, capsys):
    code, out, _ = run(capsys, ["nodal", write_path(tmp_path, 4), "--eig", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["ok"]
    assert len(doc["payload"]["domains"]) == 2


def test_numpy_bools_print_as_json_bools():
    # a numpy.bool_ fell through to json.dumps(str(obj)) and printed "False"
    doc = cli._jsonify({"ok": np.False_, "flags": [np.True_, False]})
    assert doc == '{"ok": false, "flags": [true, false]}'
    assert json.loads(doc) == {"ok": False, "flags": [True, False]}


def test_numpy_values_print_as_python_values():
    doc = cli._jsonify([np.int64(3), np.float32(0.1), np.float64(0.25), np.inf,
                        np.array([[1.0, -np.inf], [np.nan, 2.5]]), np.arange(2)])
    assert doc == ('[3, 0.10000000149011612, 0.25, "inf", '
                   '[[1, "-inf"], ["nan", 2.5]], [0, 1]]')


@pytest.mark.parametrize("eig", ["0", "3"])
def test_nodal_eig_out_of_range_is_usage_error(tmp_path, capsys, eig):
    # P4 has two boundary vertices, so only --eig 1 and 2 exist
    code, out, err = run(capsys, ["nodal", write_path(tmp_path, 4), "--eig", eig])
    assert code == 1
    assert out == ""
    assert err.startswith("ERROR 1: eigenpair index")


@pytest.mark.parametrize("command,tol", [
    pytest.param("verify", "1e-16", id="1e-16"),
    pytest.param("verify", "1e-9", id="1e-9"),
    pytest.param("nodal", "1e-9", id="nodal-1e-9"),
    pytest.param("nodal", "-inf", id="nodal--inf"),
])
def test_verify_takes_no_tol(tmp_path, capsys, command, tol):
    # no command takes a tolerance: verify --tol 1e-16 used to report a
    # false rigidity mismatch at (8, 6), and nodal --tol -inf used to fail
    # with argparse's "expected one argument"
    args = ["--n", "8", "--i", "6"] if command == "verify" else [write_path(tmp_path, 4)]
    code, out, err = run(capsys, [command, *args, "--tol", tol])
    assert code == 1
    assert out == ""
    assert err.startswith("ERROR 1:") and "--tol" in err


def test_nothing_takes_a_tolerance():
    """Every tolerance is a module constant: no function or method of the
    package has a ``tol`` parameter, and no command a ``--tol`` option."""
    modules = [steklov, *(importlib.import_module(f"steklov.{m.name}")
                          for m in pkgutil.iter_modules(steklov.__path__))]
    takes_tol = []
    for module in modules:
        for name, obj in vars(module).items():
            if not getattr(obj, "__module__", "").startswith("steklov"):
                continue
            # a class is checked by its methods: ExtremalReport keeps a tol field
            members = ([getattr(obj, k) for k in vars(obj) if not k.startswith("__")]
                       if inspect.isclass(obj) else [obj])
            takes_tol += [f"{module.__name__}.{name}" for f in members
                          if callable(f) and "tol" in inspect.signature(f).parameters]
    assert takes_tol == []
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command in [parser, *commands.choices.values()]:
        assert "--tol" not in command._option_string_actions, command.prog


@pytest.mark.parametrize("base,tooth", [("path:x", "edge"), ("path:3", "path:"),
                                        ("cycle:", "edge"), ("path:3", "path:2.5")])
def test_malformed_comb_spec_is_usage_error(capsys, base, tooth):
    code, out, err = run(capsys, ["family", "comb", "--base", base, "--tooth", tooth])
    assert code == 1
    assert out == ""
    assert err.startswith("ERROR 1:")


@pytest.mark.parametrize("field,where", [("w", "edges"), ("measure", "vertices")])
def test_non_finite_graph_file_is_input_error(tmp_path, capsys, field, where):
    doc = json.loads(Path(write_path(tmp_path, 3)).read_text())
    doc[where][0][field] = float("inf")
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["spectrum", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("ERROR 1:")


@pytest.mark.parametrize("field,where,value", [
    ("u", "edges", 0.5), ("v", "edges", 1.0), ("id", "vertices", True),
])
def test_non_integer_vertex_label_is_input_error(tmp_path, capsys, field, where, value):
    doc = json.loads(Path(write_path(tmp_path, 3)).read_text())
    doc[where][1 if where == "vertices" else 0][field] = value
    path = tmp_path / "label.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["spectrum", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("ERROR 1:")


def test_verify_trees(capsys):
    code, out, _ = run(capsys, ["verify", "--n", "7", "--i", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["match"] and doc["payload"]["bound_ok"]
    assert doc["payload"]["class_size"] == 11
    assert doc["payload"]["seconds"] == 0.0


def test_verify_connected_comb(capsys):
    code, out, _ = run(
        capsys, ["verify", "--n", "6", "--i", "3", "--class", "connected"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["match"]
    assert abs(doc["payload"]["minimum"] - 0.75) <= 1e-9


def test_verify_out_of_range(capsys):
    code, _, err = run(capsys, ["verify", "--n", "20", "--i", "2"])
    assert code == 4
    assert err.startswith("ERROR 4:")


@pytest.mark.parametrize("failed,exit_code", [
    (("bound_ok",), 2), (("bound_ok", "match"), 2), (("match",), 3),
], ids=["bound", "bound-and-match", "match"])
def test_verify_exit_code_of_a_failed_report(monkeypatch, capsys, failed, exit_code):
    # a report whose bound fails exits 2, whatever match says; one whose
    # bound holds but whose argmin set differs exits 3; each still prints
    from steklov import extremal

    _, passed, _ = run(capsys, ["verify", "--n", "7", "--i", "2"])
    report = extremal.verify_extremal(7, 2, "trees")
    monkeypatch.setattr(extremal, "verify_extremal",
                        lambda n, i, graph_class: dataclasses.replace(
                            report, **dict.fromkeys(failed, False)))
    code, out, err = run(capsys, ["verify", "--n", "7", "--i", "2"])
    assert (code, err) == (exit_code, "")
    expect = json.loads(passed)
    assert expect["payload"]["bound_ok"] is expect["payload"]["match"] is True
    expect["payload"].update(dict.fromkeys(failed, False))
    assert json.loads(out) == expect


def test_verify_bad_jobs(capsys):
    code, out, err = run(capsys, ["verify", "--n", "6", "--i", "2", "--jobs", "0"])
    assert code == 1
    assert out == ""
    assert err == "ERROR 1: --jobs must be >= 1\n"


# SHA-256 of the 70 verify reports with default flags, each as printed, in
# GRID order: every exit code, argmin set and number is pinned byte for byte
VERIFY_DIGESTS = {
    "json": "5589272454fbe7f07352a18d23ebf3d5634dc2c52c663beed95a1e14e31c17d2",
    "csv": "16c7ac261aac3a7b64fa38a5d7c9a921ba56b2e7070594cab1cced3c5bcf8258",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_DIGESTS))
def test_verify_reports_are_pinned(capsys, fmt):
    digest = hashlib.sha256()
    for graph_class, n, i in GRID:
        argv = ["verify", "--n", str(n), "--i", str(i), "--class", graph_class, "--format", fmt]
        code, out, _ = run(capsys, argv)
        assert code == 0, (graph_class, n, i)
        digest.update(out.encode())
    assert digest.hexdigest() == VERIFY_DIGESTS[fmt]


def test_verify_jobs_deterministic(capsys):
    _, serial, _ = run(capsys, ["verify", "--n", "7", "--i", "2"])
    _, parallel, _ = run(capsys, ["verify", "--n", "7", "--i", "2", "--jobs", "4"])
    assert serial == parallel  # byte-identical reports


def test_clump_cert_star_exception_float_weights(tmp_path, capsys):
    # P5 stored with "w": 1.0 is the same unit tree, so the same verdict
    p = tmp_path / "p5.json"
    doc = json.loads(Path(write_path(tmp_path, 5)).read_text())
    for e in doc["edges"]:
        e["w"] = 1.0
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["clump-cert", str(p), "--r", "0", "--k", "2", "--sub-k"])
    assert code == 0
    assert json.loads(out)["payload"]["verdict"] == "star-exception"


def test_cache_dir_flag_leaves_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STEKLOV_CACHE_DIR", "X")
    code, _, _ = run(capsys, ["--cache-dir", str(tmp_path), "selftest"])
    assert code == 0 and os.environ["STEKLOV_CACHE_DIR"] == "X"
    monkeypatch.delenv("STEKLOV_CACHE_DIR")
    run(capsys, ["--cache-dir", str(tmp_path), "selftest"])
    assert "STEKLOV_CACHE_DIR" not in os.environ


def test_verify_regenerates_truncated_cache(tmp_path, monkeypatch, capsys, caplog):
    # a class file holding only the predicted dumbbell must not shrink the
    # sweep to one class: the cache is checked against the Otter count
    from steklov.enumeration import GENERATOR_VERSION
    from steklov.extremal import predicted_bound

    monkeypatch.setenv("STEKLOV_CACHE_DIR", str(tmp_path))
    (dumbbell,) = (d.code for d in predicted_bound(9, 2, "trees").minimizers)
    (tmp_path / f"trees-n9-{GENERATOR_VERSION}.txt").write_text(dumbbell + "\n")
    code, out, _ = run(capsys, ["--cache-dir", str(tmp_path), "verify", "--n", "9", "--i", "2"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["class_size"] == 47 and payload["argmin"] == [dumbbell]
    assert "generating the class again" in caplog.text


def test_verify_with_a_file_as_cache_dir(tmp_path, capsys):
    # a cache path that is no directory is skipped, as a cache that is off:
    # the failed write's clean-up used to raise NotADirectoryError (exit 1)
    blocker = tmp_path / "not-a-dir"
    blocker.write_bytes(b"keep")
    off = run(capsys, ["--cache-dir", "", "verify", "--n", "6", "--i", "2"])
    assert off[0] == 0
    assert run(capsys, ["--cache-dir", str(blocker), "verify", "--n", "6", "--i", "2"]) == off
    assert blocker.read_bytes() == b"keep" and list(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize("argv, digest", [
    (["verify", "--n", "8", "--i", "3"],
     "5e4ebd6509b55d01620cf1cf4306371400ef34618d7fce2f01056e822bcd90eb"),
    (["verify", "--n", "5", "--i", "2", "--class", "connected"],
     "91af87048c047b846810e3ca3acb0d447f78e7b2cd16c7982d3c0ebeb82f5dd9"),
    (["sweep", "--n", "7", "--i", "2"],
     "0d92a1f27225b5088b82e27deeec071e1c4f7294579a17eb67396d12287b9f6a"),
    (["sweep", "--n", "7", "--i", "3", "--class", "connected"],
     "8decd24c2086662b54ae6d8ba6ee2b1119c7bbcab7855b3fb2b2bf8a3ec90c54"),
], ids=["verify-trees", "verify-connected", "sweep", "sweep-connected"])
def test_csv_reports_honour_out(tmp_path, capsys, argv, digest):
    # --out takes the CSV table as it takes a JSON report: the file holds
    # the bytes that stdout holds without it, and nothing is printed
    argv = argv + ["--format", "csv"]
    code, printed, _ = run(capsys, argv)
    assert code == 0 and hashlib.sha256(printed.encode()).hexdigest() == digest
    out_file = tmp_path / "report.csv"
    code, out, err = run(capsys, argv + ["--out", str(out_file)])
    assert code == 0 and out == "" and err == ""
    assert out_file.read_bytes() == printed.encode()


def test_sweep_regenerates_a_class_file_with_a_bad_code(tmp_path, capsys, caplog):
    # the right count and order, but the path's code has trailing junk: the
    # file is no class, so it is logged once, rewritten and the sweep runs
    from steklov.enumeration import GENERATOR_VERSION

    path = tmp_path / f"trees-n4-{GENERATOR_VERSION}.txt"
    path.write_text("(1()1()1())\n(1(1(1())))x\n")
    argv = ["--cache-dir", str(tmp_path), "sweep", "--n", "4", "--i", "2", "--format", "csv"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.startswith("code,sigma\n(1()1()1()),")
    assert caplog.text.count("generating the class again") == 1
    assert path.read_text() == "(1()1()1())\n(1()1(1()))\n"


def test_sweep_csv(capsys):
    code, out, _ = run(
        capsys, ["sweep", "--n", "4", "--i", "2", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "code,sigma"
    assert len(lines) == 3  # two trees on 4 vertices
    assert lines[1:] == sorted(lines[1:])


def test_sweep_csv_jobs_deterministic(capsys):
    # --jobs is accepted and changes nothing: every sweep runs in process
    argv = ["sweep", "--n", "12", "--i", "3", "--format", "csv"]
    code1, serial, _ = run(capsys, argv + ["--jobs", "1"])
    code2, parallel, _ = run(capsys, argv + ["--jobs", "2"])
    assert code1 == code2 == 0
    assert len(serial.splitlines()) == 552
    assert serial == parallel  # byte-identical tables


def test_sweep_connected_lists_trees_under_tree_codes(capsys):
    code, out, _ = run(
        capsys, ["sweep", "--n", "4", "--i", "2", "--class", "connected",
                 "--format", "csv"]
    )
    assert code == 0
    codes = [line.split(",")[0] for line in out.strip().split("\n")[1:]]
    assert len(codes) == 6 and codes == sorted(codes)
    assert sorted(c for c in codes if c.startswith("(")) == ["(1()1()1())", "(1()1(1()))"]


@pytest.mark.parametrize("n,i", [(6, 3), (9, 3), (10, 5), (12, 3)])
def test_verify_tree_combs(capsys, n, i):
    # the tree class predicts only the path-based comb
    code, out, _ = run(capsys, ["verify", "--n", str(n), "--i", str(i)])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["match"] and payload["bound_ok"]
    assert payload["predicted"] == payload["argmin"]


def test_sweep_json_rows(capsys):
    code, out, _ = run(capsys, ["sweep", "--n", "5", "--i", "2"])
    assert code == 0
    rows = json.loads(out)["payload"]["rows"]
    assert len(rows) == 3
    assert min(r["sigma"] for r in rows) > 0


def test_selftest(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["ok"]
    assert all(c["ok"] for c in doc["payload"]["checks"])


def test_entry_point_installed(tmp_path):
    """A real install of this checkout gives a working ``steklov`` command.

    ``pyproject.toml`` and ``src/`` are copied into ``tmp_path`` and installed
    into a throwaway venv there with setuptools' ``develop --no-deps``, which
    needs neither the network nor ``wheel``. The command then runs without
    ``PYTHONPATH``, so it imports the installed copy. Nothing outside
    ``tmp_path`` is installed or changed.
    """
    pytest.importorskip("setuptools")
    root = Path(__file__).resolve().parents[1]
    project = tmp_path / "project"
    project.mkdir()
    shutil.copy(root / "pyproject.toml", project)
    shutil.copytree(
        root / "src", project / "src",
        ignore=shutil.ignore_patterns("*.egg-info", "__pycache__"),
    )
    env_dir = tmp_path / "venv"
    venv.create(env_dir, system_site_packages=True, with_pip=False)
    bin_dir = str(env_dir / ("Scripts" if os.name == "nt" else "bin"))
    python = shutil.which("python", path=bin_dir)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if sys.prefix != sys.base_prefix:
        # A venv made from inside a venv sees the base interpreter's
        # site-packages, not the parent's: add the parent's explicitly.
        purelib = subprocess.run(
            [python, "-c", "import sysconfig; print(sysconfig.get_path('purelib'))"],
            capture_output=True, text=True, env=env, check=True, timeout=60,
        ).stdout.strip()
        Path(purelib, "_parent_site.pth").write_text("".join(
            f"import site; site.addsitedir({d!r})\n" for d in site.getsitepackages()
        ))
    install = subprocess.run(
        [python, "-c", "from setuptools import setup; setup()", "develop", "--no-deps"],
        cwd=project, env=env, capture_output=True, text=True, timeout=300,
    )
    assert install.returncode == 0, install.stdout + install.stderr

    exe = shutil.which("steklov", path=bin_dir)
    assert exe is not None
    proc = subprocess.run(
        [exe, "family", "path", "--n", "3"], capture_output=True, text=True,
        cwd=tmp_path, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["family"] == "path"


@pytest.mark.parametrize("argv,fragment", [
    (["--base", "star:3", "--tooth", "edge"], "unknown comb base 'star:3'"),
    (["--base", "path:3", "--tooth", "fork"], "unknown tooth 'fork'"),
], ids=["star-base", "fork-tooth"])
def test_family_comb_refuses_unknown_specs(capsys, argv, fragment):
    code, out, err = run(capsys, ["family", "comb", *argv])
    assert (code, out) == (1, "") and err.startswith("ERROR 1:") and fragment in err


def test_verbose_logs_to_stderr_and_leaves_stdout(tmp_path):
    env = {**os.environ, "STEKLOV_CACHE_DIR": str(tmp_path)}

    def child(*flags):
        return subprocess.run(
            [sys.executable, "-m", "steklov.cli", *flags, "verify", "--n", "6", "--i", "2"],
            capture_output=True, env=env, timeout=120)

    quiet, loud = child(), child("-v")
    assert (quiet.returncode, loud.returncode, quiet.stderr) == (0, 0, b"")
    assert loud.stdout == quiet.stdout
    assert loud.stderr.startswith(b"INFO verify finished in ")


def test_verbose_lasts_one_call_in_process(capsys, monkeypatch):
    # the root logger of a fresh process has no handler; main's -v and its
    # stderr handler must not outlive the call that set them
    root = logging.getLogger()
    monkeypatch.setattr(root, "handlers", [])
    before = root.level, root.handlers[:]
    argv = ["verify", "--n", "5", "--i", "2"]
    loud, quiet = run(capsys, ["-v", *argv]), run(capsys, argv)
    assert loud[:2] == quiet[:2] and loud[0] == 0
    assert loud[2].startswith("INFO verify finished in ")
    assert quiet[2] == ""
    assert (root.level, root.handlers) == before


def test_certification_error_exits_2(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise CertificationError("removal guaranteed but none found")

    monkeypatch.setattr(clumps, "find_removal_for_clump", fail)
    argv = ["clump-cert", write_path(tmp_path, 4), "--r", "0", "--k", "2"]
    assert run(capsys, argv) == (2, "", "ERROR 2: removal guaranteed but none found\n")


def test_jsonify_writes_any_other_object_as_its_string():
    assert cli._jsonify({"z": 1 + 2j}) == '{"z": "(1+2j)"}'


def test_selftest_reports_a_check_that_raises(capsys, caplog, monkeypatch):
    def fail(*args):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(families, "lambda_value", fail)
    code, out, _ = run(capsys, ["selftest"])
    payload = json.loads(out)["payload"]
    assert (code, payload["ok"]) == (2, False)
    assert [c["ok"] for c in payload["checks"]] == [False, True, True, True, True]
    assert "selftest lambda-spot-values raised: boom" in caplog.text

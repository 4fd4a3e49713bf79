"""The repository's tools, run as a user runs them.

The benchmark's tracer wraps the engine's public functions by name, so a
change to src/ that renames or bypasses one of them fails its self-check.
The s4 corpus script reads and prints every entry of the corpus file.
The capacity script times a loop alone and beside one forked sibling.
The A/B script times two checkouts of the engine against each other.
Every definition in src/, each method too, is reached from a command or
from what the benchmark and the scripts call.
"""

from __future__ import annotations

import ast
import contextlib
import copy
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("selfcheck: ok")


def test_the_s4_corpus_script_regenerates_the_corpus_file(tmp_path):
    # the script parses and prints every entry, so the reader and the
    # printer must agree for the file to come out byte for byte
    out = tmp_path / "s4_nonflat.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_s4_corpus.py"), "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert out.read_bytes() == (ROOT / "src" / "curvedchern" / "corpus" / "s4_nonflat.json").read_bytes()


def test_the_capacity_script_prints_both_times_and_their_ratio():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "capacity.py"), "--loops", "2000"],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    runs = r" \(runs:(?: \S+){5}\)"
    got = re.fullmatch(
        rf"alone: (\S+) s{runs}\nbeside a forked sibling: (\S+) s{runs}\nratio: (\S+)\n", proc.stdout
    )
    assert got, proc.stdout
    alone, beside, ratio = map(float, got.groups())
    assert alone > 0 and beside > 0 and ratio > 0


def test_the_capacity_script_forks_once_and_reaps_its_sibling(monkeypatch):
    spec = importlib.util.spec_from_file_location("capacity", ROOT / "scripts" / "capacity.py")
    capacity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(capacity)
    pids, plain = [], os.fork

    def fork():
        pid = plain()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    with contextlib.redirect_stdout(io.StringIO()):
        assert capacity.main(["--loops", "2000"]) == 0
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_ab_script_compares_a_tree_with_itself():
    # one round over seeds 0-2 and the s4 file: the two imports of the same
    # tree give identical Chern-Weil strings, and each workload prints its
    # line
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), str(ROOT), str(ROOT), "--rounds", "1", "--seeds", "3"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    side = r"min (\S+) s median (\S+) s"
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["random seeds 0-2", "s4-nonflat"]
    for line in lines:
        got = re.search(rf"parent {side}, change {side}, change faster in ([01]) of 1 rounds$", line)
        assert got, line
        assert all(float(x) > 0 for x in got.groups()[:4])


# cli.main and the commands it dispatches by name, and what the benchmark
# and the scripts call
ENTRY_POINTS = (
    "main", "cmd_compute", "cmd_verify", "cmd_examples", "cmd_milnor",
    "parse_instance", "run_suite", "render_json", "random_module_instance", "GradedRing",
)


def _names(node) -> set:
    """Every name and attribute that node's code mentions."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _traced_methods() -> set:
    """The method names perfbench/tracer.py wraps by name: its METHODS."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    [methods] = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["METHODS"]
    ]
    return {name for names in ast.literal_eval(methods).values() for name in names}


def _overrides_the_stdlib(stem: str, cls_name: str, name: str) -> bool:
    """Whether the method `name` of class cls_name in src/curvedchern/<stem>.py
    overrides one of a base class from outside the package, which that
    base's own code calls (as argparse calls ArgumentParser.error)."""
    cls = getattr(importlib.import_module(f"curvedchern.{stem}"), cls_name)
    return any(hasattr(base, name) for base in cls.__mro__[1:] if not base.__module__.startswith("curvedchern"))


def test_every_definition_in_src_is_reachable_from_an_entry_point():
    # nothing is kept only because a test calls it.  Reachability is by
    # name across modules (a mention of `f` reaches every top-level `f`
    # and every method `f`), and module-level code runs on import, so it
    # counts as a root.  A class is reached with its dunder methods, which
    # Python calls by protocol; each other method is a definition of its
    # own, a root when the benchmark's tracer wraps it or when it overrides
    # a method of a base class from outside the package
    defs: dict = {}
    roots = set(ENTRY_POINTS)
    traced = _traced_methods()
    for path in sorted((ROOT / "src" / "curvedchern").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                methods = [
                    n for n in node.body
                    if isinstance(n, ast.FunctionDef) and not (n.name.startswith("__") and n.name.endswith("__"))
                ]
                for method in methods:
                    defs.setdefault(method.name, []).append((path.stem, method))
                    if method.name in traced or _overrides_the_stdlib(path.stem, node.name, method.name):
                        roots.add(method.name)
                node = copy.copy(node)
                node.body = [n for n in node.body if n not in methods]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
            else:
                roots |= _names(node)
    seen: set = set()
    todo = [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += [n for _, node in defs[name] for n in _names(node) if n in defs]
    unreached = sorted(f"{mod}.{name}" for name, found in defs.items() if name not in seen for mod, _ in found)
    assert unreached == []

"""Every top-level function and class of ``nlslab`` is reached by what the
program is run for, so code that nothing runs does not grow back.

A fresh interpreter (the ``lru_cache``d functions start cold there) runs
every subcommand at the configs of ``test_cli_smoke_every_subcommand`` and
the benchmark's non-CLI jobs at their tiny size, under ``sys.setprofile``.
A top-level name of ``src/nlslab/*.py`` is reached when

* the run called it, or the code of a reached name loads it as a global (a
  helper of a hooked function, an exception a called function raises, a
  class one returns);
* ``nlsbench/*.py`` names it: the benchmark hooks or imports it; or
* ``KEPT_FOR_TESTS`` keeps it, with a reason.

An oracle or entry point that only the tests use lives in
``tests/reference.py``, not in the package.  Run as a script, this file
prints the names that are not reached.
"""

import ast
import dis
import importlib
import inspect
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nlslab"
BENCH = ROOT / "nlsbench"

KEPT_FOR_TESTS = {
    ("geometry", "load_field"): "the reader of simulate's checkpoints",
}


def top_level_names() -> set:
    """(module, name) of every top-level function and class of nlslab."""
    return {(path.stem, node.name)
            for path in sorted(SRC.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def bench_names() -> set:
    """(module, name) of every nlslab name that nlsbench imports, hooks as a
    ("nlslab.module", "name", ...) tuple, or reads as ``module.name``."""
    stems = {path.stem for path in SRC.glob("*.py")}
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nlslab."):
                found |= {(node.module[7:], alias.name) for alias in node.names}
            elif isinstance(node, ast.Tuple) and len(node.elts) > 1 and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in node.elts[:2]) and node.elts[0].value.startswith("nlslab."):
                found.add((node.elts[0].value[7:], node.elts[1].value))
            elif isinstance(node, ast.Attribute):
                owner = getattr(node.value, "id", getattr(node.value, "attr", None))
                if owner in stems:
                    found.add((owner, node.attr))
    return found


def _codes(obj):
    """The code objects of a function, or of every method of a class."""
    obj = inspect.unwrap(obj)
    if isinstance(obj, type):
        for member in vars(obj).values():
            member = getattr(member, "__func__", member)
            for part in (member, getattr(member, "fget", None), getattr(member, "fset", None)):
                if inspect.isfunction(part):
                    yield inspect.unwrap(part).__code__
    elif inspect.isfunction(obj):
        yield obj.__code__


def _closure(codes, modules, top, reached: set) -> set:
    """``reached`` grown by every name of ``top`` that ``codes`` (and their
    nested code) load as globals, and by what those load in turn."""
    reached = set(reached)
    stack = list(codes)
    while stack:
        code = stack.pop()
        module = modules.get(Path(code.co_filename).stem) \
            if Path(code.co_filename).parent == SRC else None
        if module is None:
            continue
        stack += [c for c in code.co_consts if inspect.iscode(c)]
        for ins in dis.get_instructions(code):
            if ins.opname not in ("LOAD_GLOBAL", "LOAD_NAME"):
                continue
            obj = vars(module).get(ins.argval)
            owner = getattr(obj, "__module__", None) or ""
            key = (owner.rpartition(".")[2], getattr(obj, "__name__", None))
            if owner.startswith("nlslab.") and key in top and key not in reached:
                reached.add(key)
                stack += list(_codes(obj))
    return reached


def unreached():
    """Run the subcommands and the non-CLI bench jobs, and return the
    top-level names that they do not reach, beside the kept names that they
    reach all the same."""
    sys.path.insert(0, str(BENCH))
    import jobs
    from test_experiments import SMOKE

    import nlslab.cli

    top = top_level_names()
    modules = {stem: importlib.import_module(f"nlslab.{stem}") for stem, _ in top}
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)
        threading.setprofile(profile)
        try:
            for command, (text, _) in sorted(SMOKE.items()):
                cfg = Path(tmp) / f"{command}.cfg"
                cfg.write_text(text)
                nlslab.cli.main([command, "--config", str(cfg), "--out", str(Path(tmp) / command)])
            for workload in jobs.WORKLOADS:
                for job in jobs.build_jobs(workload, 0, "tiny"):
                    if job.run is not None:
                        job.run()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)

    def of(keys):
        return [c for stem, name in keys for c in _codes(getattr(modules[stem], name))]

    hit = {(Path(c.co_filename).stem, getattr(c, "co_qualname", c.co_name).split(".")[0])
           for c in called if Path(c.co_filename).parent == SRC}
    named = bench_names() & top
    reached = _closure(list(called) + of(named), modules, top, (hit & top) | named)
    kept = set(KEPT_FOR_TESTS)
    everything = _closure(of(kept), modules, top, reached | kept)
    return sorted(top - everything), sorted(kept & reached)


def test_every_name_is_reached():
    top = top_level_names()
    for stem, name in KEPT_FOR_TESTS:
        assert (stem, name) in top, \
            f"KEPT_FOR_TESTS keeps {stem}.{name}, which is not a top-level name of src/nlslab"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("NLSLAB_OUT", None)  # it would override the runs' --out
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    missing, kept_anyway = json.loads(proc.stdout.splitlines()[-1])
    assert missing == [], (f"not run, hooked, imported by the bench or kept: {missing}; "
                           "an oracle only the tests use belongs in tests/reference.py")
    assert kept_anyway == [], f"reached without KEPT_FOR_TESTS, drop them there: {kept_anyway}"


def test_a_stale_keep_is_named(monkeypatch):
    # checked in this process, before the runs, with the entry's name
    monkeypatch.setitem(KEPT_FOR_TESTS, ("geometry", "gone"), "a name that no longer exists")
    with pytest.raises(AssertionError, match="keeps geometry.gone"):
        test_every_name_is_reached()


if __name__ == "__main__":
    print(json.dumps(unreached()))

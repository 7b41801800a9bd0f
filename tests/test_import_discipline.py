"""A command imports what it runs; local workers fork what their parent loaded.

The package runs on the standard library alone: every module imports in
an interpreter that sees no site-packages, so a clean install of
``repro`` (``dependencies = []``) can run all of it.

No process of the program loads OpenSSL: it hashes with CPython's
built-in BLAKE2b (``_blake2``), so ``hashlib`` -- whose import loads and
initialises libcrypto through ``_hashlib`` -- stays out of ``src/``.

Every check runs in a fresh interpreter: ``sys.modules`` of the pytest
process holds the whole package by the time any test runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _fresh_interpreter(code, *argv):
    """Run ``code`` in a new interpreter; its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _loaded(modules, package):
    return [m for m in modules if m == package or m.startswith(package + ".")]


#: What no process of the program loads, whatever it runs: OpenSSL.
OPENSSL_MODULES = ("_hashlib", "ssl")


def _openssl(modules):
    return [name for name in OPENSSL_MODULES if _loaded(modules, name)]


# -- the standard library is enough ---------------------------------------------

_IMPORT_EVERY_MODULE = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import repro
failed = {}
def note(name):
    failed[name] = repr(sys.exc_info()[1])
names = [info.name for info in
         pkgutil.walk_packages(repro.__path__, "repro.", onerror=note)]
for name in names:
    try:
        importlib.import_module(name)
    except Exception as exc:
        failed[name] = repr(exc)
print(json.dumps({"modules": names, "failed": failed}))
"""


def test_every_module_imports_on_the_standard_library_alone():
    # -S: no site-packages; -E: no PYTHONPATH; -B: no bytecode left behind
    done = subprocess.run(
        [sys.executable, "-S", "-E", "-B", "-c", _IMPORT_EVERY_MODULE, SRC],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert "repro.exp.distributed" in seen["modules"]  # the walk went deep
    assert seen["failed"] == {}


# -- a replay loads no simulator ------------------------------------------------

_RUN_CLI = """
import contextlib, io, json, sys
from repro.__main__ import main
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"exit": code, "summary": json.loads(out.getvalue()),
                  "modules": sorted(sys.modules)}))
"""

#: What a run that executes no trial has no use for.
REPLAY_NEVER_LOADS = (
    "repro.kernel", "repro.components", "repro.script", "repro.ftm",
    "repro.core", "repro.app", "repro.patterns",
    "repro.exp.distributed", "multiprocessing", "selectors", "socket",
) + OPENSSL_MODULES

SMOKE_COMMANDS = {
    "campaign": ["--missions", "4", "--cell-size", "2", "--requests", "8"],
    "gray-matrix": ["--missions", "1", "--ftms", "lfr", "--resources", "cpu",
                    "--factors", "8", "--requests", "40"],
    "transition-matrix": ["--smoke"],
}


@pytest.mark.parametrize("command", sorted(SMOKE_COMMANDS))
def test_full_hit_replay_loads_no_simulator(command, tmp_path):
    argv = [command, *SMOKE_COMMANDS[command], "--jobs", "1",
            "--store", str(tmp_path), "--json"]
    cold = _fresh_interpreter(_RUN_CLI, *argv)
    assert cold["exit"] == 0 and cold["summary"]["cache_state"] == "cold"
    assert cold["summary"]["trials_executed"] > 0
    assert "repro.kernel.world" in cold["modules"]  # the cold run did simulate
    assert not _openssl(cold["modules"])

    replay = _fresh_interpreter(_RUN_CLI, *argv)
    assert replay["exit"] == 0
    assert replay["summary"]["cache_state"] == "full"
    assert replay["summary"]["trials_executed"] == 0
    loaded = {name: _loaded(replay["modules"], name)
              for name in REPLAY_NEVER_LOADS}
    assert not any(loaded.values()), loaded
    assert len(_loaded(replay["modules"], "repro")) <= 15
    for key in ("spec", "hash", "cells", "problems"):
        assert replay["summary"][key] == cold["summary"][key]


_WORKER_IMPORTS = """
import json, sys
import repro.__main__, repro.exp.distributed
print(json.dumps(sorted(sys.modules)))
"""


def test_a_worker_process_loads_no_openssl():
    # `repro worker` runs repro.__main__ and serves from repro.exp.distributed
    modules = _fresh_interpreter(_WORKER_IMPORTS)
    assert "repro.exp.distributed" in modules
    assert not _openssl(modules)


# -- the lazy packages keep their surface ---------------------------------------

_SURFACE = """
import json, sys
import repro.eval, repro.exp
on_import = sorted(m for m in sys.modules if m.startswith("repro"))
from repro.exp import RemoteBackend
gray = repro.eval.gray
from repro.eval import table3, wilson_interval
print(json.dumps({
    "on_import": on_import,
    "exp_all": repro.exp.__all__, "eval_all": repro.eval.__all__,
    "exp_dir": dir(repro.exp), "eval_dir": dir(repro.eval),
    "names": [RemoteBackend.__module__, gray.__name__, table3.__name__,
              wilson_interval.__module__],
}))
"""

EVAL_ALL = [
    "agility", "campaign", "consistency_eval", "figure2", "figure4",
    "figure5", "figure8", "figure9", "gray", "table1", "table2",
    "table3", "transition_matrix", "render_table", "class_sloc",
    "count_sloc", "format_interval", "wilson_interval",
]

EXP_ALL = [
    "BACKENDS", "DEFAULT_ROOT", "DistributedError",
    "ExecutionPlan", "ExecutionStats", "ExecutorBackend", "ExperimentError",
    "ExperimentResult", "ExperimentSpec", "LocalPoolBackend", "RemoteBackend",
    "SerialBackend", "ReduceFn", "ResultStore", "ResultTypeError", "SpecError",
    "Trial", "TrialFn", "cell_fingerprint", "cell_hash",
    "cell_slug", "default_batch", "default_jobs", "derive_seed",
    "derive_seeds", "fingerprint", "run", "shutdown_local_pool", "spec_hash",
]


def test_lazy_packages_keep_their_surface():
    seen = _fresh_interpreter(_SURFACE)
    assert seen["exp_all"] == EXP_ALL
    assert seen["eval_all"] == EVAL_ALL
    assert set(EXP_ALL) <= set(seen["exp_dir"])
    assert set(EVAL_ALL) <= set(seen["eval_dir"])
    assert seen["names"] == ["repro.exp.distributed", "repro.eval.gray",
                             "repro.eval.table3", "repro.eval.stats"]
    # importing the packages themselves loaded no artifact and no backend
    assert _loaded(seen["on_import"], "repro.eval") == ["repro.eval"]
    assert "repro.exp.distributed" not in seen["on_import"]
    assert not _loaded(seen["on_import"], "repro.kernel")


# -- the local workers fork warm -----------------------------------------------

_POOLED_RUN = """
import json, os, sys
at_fork = []
real_fork = os.fork
def spying_fork():
    at_fork.append(sorted(sys.modules))
    return real_fork()
os.fork = spying_fork
from repro import exp
from repro.eval import campaign
spec = campaign.sharded_spec(missions=6, base_seed=77, requests=8, cell_size=3)
before = sorted(sys.modules)
stats = exp.ExecutionStats()
result = exp.run(spec, jobs=2, backend="local", batch=2, stats=stats)
print(json.dumps({"before": before, "at_fork": at_fork,
                  "executed": result.executed, "batches": stats.batches,
                  "requests": result.events_by_source["request"]}))
"""


def test_local_pool_forks_from_a_parent_that_ran_the_first_unit():
    seen = _fresh_interpreter(_POOLED_RUN)
    assert not _loaded(seen["before"], "repro.kernel")  # the parent was lazy
    # unit 0 ran in the parent; the other five went out in batches of two,
    # to two workers forked for this run
    assert seen["executed"] == 6 and seen["batches"] == 3
    assert len(seen["at_fork"]) == 2
    for at_fork in seen["at_fork"]:
        for module in ("repro.kernel.world", "repro.components", "repro.script",
                       "repro.ftm", "repro.core.adaptation_engine",
                       "repro.app.workloads", "repro.exp.distributed"):
            assert module in at_fork, module
        assert not _loaded(at_fork, "multiprocessing")
        assert not _openssl(at_fork)
    assert seen["requests"] > 0  # parent's and workers' events both counted

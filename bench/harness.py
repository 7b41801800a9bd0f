"""The end-to-end harness: fresh subprocess per run, timed from outside.

One timed run is one fresh subprocess of the program, timed from
``Popen`` to exit — ROADMAP's "CLI entry to merged store".  The harness
only waits on children: at most two program processes work at once (the
pool's two workers, or the two ``repro worker`` processes), because the
bench host has two cores.

Everything a run writes lands under ``bench/out/`` (git-ignored): each
:class:`Session` owns one temp directory there and removes it on exit,
along with any worker process it started.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from workloads import CROSS_BACKEND, BY_NAME, Workload, judge

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
GOLDEN = BENCH_DIR / "golden.json"

#: End-to-end metrics, in print order: name -> (unit, better).
END_TO_END = {
    "units_per_s": ("units/s", "higher"),
    "cpu_ms_per_unit": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "fail_ratio": ("ratio", "lower"),
}

#: Timed runs a workload needs before ``--seconds`` may end the loop.
MIN_RUNS = 3
#: Hard cap on runs per workload (a program that fails instantly must
#: not be restarted for the whole measuring window).
MAX_RUNS = 64
#: Set-ups per invocation; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Noisy runs re-run per workload before noise is accepted as the host's.
NOISE_RETRIES = 2
#: Spin-loop disagreement (before vs after a run) that marks it noisy.
NOISE_LIMIT = 0.10
#: Seconds a worker gets to print its ``listening on`` line.
WORKER_START_TIMEOUT_S = 20.0


def require_program() -> None:
    """Exit non-zero when the checkout holds the benchmark but no program."""
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"error: {SRC}/repro is missing - the benchmark measures the program "
              "in this checkout and there is none", file=sys.stderr)
        raise SystemExit(2)


def child_env() -> Dict[str, str]:
    """The children's environment: this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def spin_ms() -> float:
    """Best of three timings of a fixed pure-Python loop (the noise probe).

    Best-of-three so one pre-emption of the probe itself does not flag a
    quiet run; a host that is busy for the whole probe still reads slow.
    """
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += (i * i) & 7
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def git_commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def fingerprint() -> Dict[str, Any]:
    """Host identity carried by every result file (``compare.py`` checks it)."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": f"{platform.system()}-{platform.machine()}",
        "commit": git_commit(),
        "loadavg_start": os.getloadavg()[0],
    }


def summarise(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles, extremes and every value of one metric."""
    values = list(values)
    if not values:
        return {"median": None, "q1": None, "q3": None, "min": None,
                "max": None, "n": 0, "values": []}
    if len(values) >= 2:
        q1, _mid, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values),
            "values": values}


# ---------------------------------------------------------------------------
# Store digests
# ---------------------------------------------------------------------------


def store_digests(store: Path) -> Dict[str, Any]:
    """Digest a result-store tree two ways, and count its cell files.

    ``store_digest`` covers sorted relative paths plus file bytes, with
    the manifest's ``meta`` (jobs, backend, elapsed) dropped — the
    cross-backend identity.  ``results_digest`` covers only cell key ->
    values, so it survives edits that change cell hashes but not results
    (a comment in the trial function) — the golden drift check.
    """
    tree = hashlib.sha256()
    results = hashlib.sha256()
    cell_files = 0
    cell_bytes = 0
    values_by_key: Dict[str, Any] = {}
    if store.is_dir():
        for path in sorted(p for p in store.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.name == "manifest.json":
                try:
                    manifest = json.loads(data)
                    manifest.pop("meta", None)
                    data = json.dumps(manifest, sort_keys=True).encode("utf-8")
                except ValueError:
                    pass
            elif path.suffix == ".json":
                cell_files += 1
                cell_bytes += len(data)
                try:
                    payload = json.loads(data)
                    key = payload["fingerprint"]["cell"]["key"]
                    values_by_key[f"{path.parent.name}/{key}"] = payload["values"]
                except (ValueError, KeyError, TypeError):
                    values_by_key[str(path.relative_to(store))] = "unreadable"
            tree.update(str(path.relative_to(store)).encode("utf-8"))
            tree.update(b"\0")
            tree.update(data)
            tree.update(b"\0")
    results.update(json.dumps(values_by_key, sort_keys=True).encode("utf-8"))
    return {"store_digest": tree.hexdigest(), "results_digest": results.hexdigest(),
            "cell_files": cell_files, "cell_bytes": cell_bytes}


def golden_digest(workload: str, seed: int) -> Optional[str]:
    """The committed ``results_digest`` of a full-size run, if recorded."""
    try:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return (golden.get("digests", {}).get(str(seed)) or {}).get(workload)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


@dataclass
class ProgramRun:
    """What the harness saw of one program subprocess."""

    returncode: Optional[int]  #: ``None`` when killed at the timeout
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: Path
    stderr: Path

    def summary(self) -> Optional[Dict[str, Any]]:
        """The JSON summary the program printed on stdout, if it parses."""
        try:
            payload = json.loads(self.stdout.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def stderr_tail(self, lines: int = 3) -> str:
        """The last few stderr lines (context for a failed run)."""
        try:
            text = self.stderr.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return ""
        return " | ".join(text.strip().splitlines()[-lines:])


def run_program(argv: Sequence[str], cwd: Path, timeout_s: float,
                tag: str) -> ProgramRun:
    """Run one program subprocess to completion and account for it.

    Wall time runs from just before ``Popen`` to the child's exit; CPU
    and peak RSS come from ``os.wait4``'s rusage, which covers the child
    and every descendant it reaped (its pool workers).  A child still
    alive at ``timeout_s`` is killed and reported with ``returncode
    None`` — a failure of the run, never an exception of the harness.
    """
    stdout = cwd / f"{tag}.out"
    stderr = cwd / f"{tag}.err"
    timed_out = threading.Event()
    exited = threading.Event()
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=cwd, env=child_env(), stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)

        def kill_if_running() -> None:
            if not exited.is_set():
                timed_out.set()
                proc.kill()

        killer = threading.Timer(timeout_s, kill_if_running)
        killer.daemon = True
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            exited.set()
            killer.cancel()
        wall = time.perf_counter() - started
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # reaped here, not by Popen
    return ProgramRun(
        returncode=None if timed_out.is_set() else code,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=stdout, stderr=stderr,
    )


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


@dataclass
class Worker:
    """One long-lived ``repro worker`` subprocess."""

    proc: subprocess.Popen
    address: str
    shadow: Path
    start_ms: float

    def cpu_s(self) -> float:
        """``utime + stime`` of the worker so far, from ``/proc``."""
        try:
            stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        except OSError:
            return 0.0
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """The worker's high-water RSS (``VmHWM``), from ``/proc``."""
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return 0.0
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def wipe_shadow(self) -> None:
        """Empty the shadow store so the next run ships no cached cells."""
        shutil.rmtree(self.shadow, ignore_errors=True)

    def stop(self) -> None:
        """Terminate the worker and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Session:
    """Owns the temp directory and the worker processes of one invocation.

    Use as a context manager; ``close`` is also registered with
    ``atexit`` and SIGTERM is turned into ``SystemExit`` so a killed
    harness still stops its workers and removes its files.
    """

    def __init__(self) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
        self.workers: List[Worker] = []
        self._counter = 0
        #: (size, seed) -> the serial backend's store digest.
        self.serial_digests: Dict[Tuple[str, int], str] = {}
        atexit.register(self.close)
        try:
            signal.signal(signal.SIGTERM, _raise_exit)
        except ValueError:
            pass  # not the main thread (tests); atexit still covers us

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def mkdir(self, label: str) -> Path:
        """A fresh directory under the session's temp root."""
        self._counter += 1
        path = self.tmp / f"{self._counter:04d}-{label}"
        path.mkdir()
        return path

    def start_workers(self, count: int) -> List[Worker]:
        """Start ``count`` workers on port 0 in parallel; parse their addresses."""
        started = time.perf_counter()
        pending = []
        for index in range(count):
            home = self.mkdir(f"worker{index}")
            shadow = home / "shadow"
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0",
                 "--shadow", str(shadow)],
                cwd=home, env=child_env(), stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL, text=True,
            )
            worker = Worker(proc=proc, address="", shadow=shadow, start_ms=0.0)
            self.workers.append(worker)
            pending.append(worker)
        for worker in pending:
            killer = threading.Timer(WORKER_START_TIMEOUT_S, worker.proc.kill)
            killer.daemon = True
            killer.start()
            try:
                line = worker.proc.stdout.readline()
            finally:
                killer.cancel()
            if "listening on" not in line:
                raise RuntimeError(f"worker did not start (said {line!r})")
            worker.address = line.rsplit("listening on", 1)[1].strip()
            worker.start_ms = (time.perf_counter() - started) * 1e3
        return pending

    def stop_workers(self) -> None:
        """Stop every live worker and wait for each to end."""
        for worker in self.workers:
            worker.stop()
        self.workers = []

    def close(self) -> None:
        """Stop workers, remove the temp directory (idempotent)."""
        self.stop_workers()
        shutil.rmtree(self.tmp, ignore_errors=True)
        atexit.unregister(self.close)


def _raise_exit(_signum, _frame) -> None:
    """SIGTERM unwinds through the ``finally``/``atexit`` teardown.

    Safe only because the harness never forks Python children: a forked
    child inherits this handler and CPython drops a signal that lands
    between ``fork`` and its after-fork bookkeeping, so ``Pool.terminate``
    would hang.  Pool probes therefore run in ``entry.py`` subprocesses.
    """
    raise SystemExit(143)


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


@dataclass
class _Setup:
    """What one set-up pass left behind for the timed runs."""

    seconds: float
    workers: List[Worker] = field(default_factory=list)
    replay_store: Optional[Path] = None
    cold_summary: Optional[Dict[str, Any]] = None
    problems: List[str] = field(default_factory=list)


def _set_up(session: Session, workload: Workload, seed: int, size: str) -> _Setup:
    """Everything before the timed region: dirs, workers, warm-up / pre-population.

    The discarded warm-up run (``.pyc`` files, page cache) is part of
    set-up and of ``setup_s``; for ``store_replay`` the warm-up *is* the
    cold run that populates the store, so a slower write path shows in
    ``setup_s``.
    """
    started = time.perf_counter()
    setup = _Setup(seconds=0.0)
    home = session.mkdir(f"{workload.name}-setup")
    try:
        if workload.backend == "remote":
            setup.workers = session.start_workers(2)
        addresses = [w.address for w in setup.workers]
        if workload.replay:
            setup.replay_store = session.mkdir(f"{workload.name}-store")
            argv = workload.argv(size, seed, setup.replay_store, fresh=True)
        else:
            argv = workload.argv("smoke", seed, home / "store", fresh=True,
                                 workers=addresses)
        warm = run_program(argv, home, workload.timeout_s(), "warmup")
        if workload.replay:
            # the cold run is the store the timed runs replay; elsewhere the
            # warm-up's own verdict (shape checks at 1/20 size) is not measured
            setup.cold_summary = warm.summary()
            if warm.returncode != 0:
                setup.problems.append(
                    f"cold run failed (exit {warm.returncode}): {warm.stderr_tail()}")
    except (OSError, RuntimeError) as exc:
        setup.problems.append(f"set-up failed: {exc}")
    setup.seconds = time.perf_counter() - started
    return setup


def _tear_down(session: Session, setup: _Setup) -> None:
    if setup.workers:
        session.stop_workers()
    if setup.replay_store is not None:
        shutil.rmtree(setup.replay_store, ignore_errors=True)


def _timed_run(session: Session, workload: Workload, seed: int, size: str,
               setup: _Setup, index: int) -> Dict[str, Any]:
    """One timed program run plus its judgement (store digests included)."""
    home = session.mkdir(f"{workload.name}-run{index}")
    store = setup.replay_store if workload.replay else home / "store"
    for worker in setup.workers:
        worker.wipe_shadow()
    cpu_before = [w.cpu_s() for w in setup.workers]
    argv = workload.argv(size, seed, store, fresh=not workload.replay,
                         workers=[w.address for w in setup.workers])
    run = run_program(argv, home, workload.timeout_s(), "run")
    cpu_s = run.cpu_s + sum(w.cpu_s() - before
                            for w, before in zip(setup.workers, cpu_before))
    rss_mb = max([run.rss_mb] + [w.peak_rss_mb() for w in setup.workers])
    digests = store_digests(store)
    failed, problems = judge(workload, size, run.returncode, run.summary(),
                             digests["cell_files"], setup.cold_summary)
    if setup.problems:
        failed, problems = workload.units(size), setup.problems + problems
    if run.returncode != 0:
        problems.append(f"stderr: {run.stderr_tail()}")
    record = {
        "returncode": run.returncode, "wall_s": run.wall_s, "cpu_s": cpu_s,
        "rss_mb": rss_mb, "failed_units": failed, "problems": problems,
        "noisy": False, **digests,
    }
    if not workload.replay:
        shutil.rmtree(home, ignore_errors=True)
    return record


def serial_reference(session: Session, seed: int, size: str) -> Optional[str]:
    """The serial backend's store digest for the shared campaign spec.

    Taken from ``campaign_serial``'s own runs when this session made
    them; otherwise one untimed serial run is made here — the check
    costs a run, it is not part of any metric.
    """
    key = (size, seed)
    if key not in session.serial_digests:
        workload = BY_NAME["campaign_serial"]
        home = session.mkdir("serial-reference")
        run = run_program(workload.argv(size, seed, home / "store", fresh=True),
                          home, workload.timeout_s(), "reference")
        if run.returncode != 0:
            return None
        session.serial_digests[key] = store_digests(home / "store")["store_digest"]
        shutil.rmtree(home, ignore_errors=True)
    return session.serial_digests[key]


def run_workload(session: Session, workload: Workload, seed: int, seconds: float,
                 size: str = "full", min_runs: int = MIN_RUNS,
                 setup_repeats: int = SETUP_REPEATS) -> Dict[str, Any]:
    """Set up, run the timed loop, judge every run, aggregate the metrics."""
    units = workload.units(size)
    setups: List[float] = []
    setup: Optional[_Setup] = None
    for _ in range(setup_repeats):
        if setup is not None:
            _tear_down(session, setup)
        setup = _set_up(session, workload, seed, size)
        setups.append(setup.seconds)

    runs: List[Dict[str, Any]] = []
    good: List[Dict[str, Any]] = []
    retries = 0
    spin_before = spin_ms()
    loop_started = time.perf_counter()
    while len(runs) < MAX_RUNS and (
            len(good) < min_runs or time.perf_counter() - loop_started < seconds):
        record = _timed_run(session, workload, seed, size, setup, len(runs))
        spin_after = spin_ms()
        record["spin_before_ms"] = spin_before
        record["spin_after_ms"] = spin_after
        drift = abs(spin_after - spin_before) / min(spin_after, spin_before)
        spin_before = spin_after
        runs.append(record)
        if drift > NOISE_LIMIT and retries < NOISE_RETRIES:
            record["noisy"] = True  # reported, re-run, kept out of the medians
            retries += 1
            continue
        good.append(record)

    # cross-backend byte identity: the three campaign workloads share one
    # spec and seed, so every run's store must equal the serial backend's
    if workload.name in CROSS_BACKEND:
        if workload.name == "campaign_serial" and good:
            session.serial_digests.setdefault((size, seed), good[0]["store_digest"])
        reference = serial_reference(session, seed, size)
        for record in runs:
            if record["store_digest"] != reference:
                record["failed_units"] = units
                record["problems"].append("store differs from the serial backend's")
    _tear_down(session, setup)

    attempted = units * len(runs)
    failed = sum(r["failed_units"] for r in runs)
    metrics = {
        "units_per_s": summarise([units / r["wall_s"] for r in good]),
        "cpu_ms_per_unit": summarise([r["cpu_s"] * 1e3 / units for r in good]),
        "peak_rss_mb": summarise([r["rss_mb"] for r in good]),
        "setup_s": summarise(setups),
        # a ratio of totals over every run made: one failed run in five
        # must show, which a median of per-run ratios would hide
        "fail_ratio": summarise([failed / attempted]),
    }
    for name, (unit, better) in END_TO_END.items():
        metrics[name].update(unit=unit, better=better)
    digest = good[-1]["results_digest"] if good else None
    golden = golden_digest(workload.name, seed) if size == "full" else None
    problems = sorted({p for r in runs for p in r["problems"]})
    return {
        "workload": workload.name, "size": size, "seed": seed, "unit": workload.unit,
        "units_per_run": units, "attempted": attempted, "failed": failed,
        "correct": failed == 0 and bool(good),
        "metrics": metrics,
        "info": {
            "wall_s": statistics.median(r["wall_s"] for r in good) if good else None,
            "results_digest": digest,
            "store_digest": good[-1]["store_digest"] if good else None,
            "digest_drift": None if golden is None else golden != digest,
            "host.spin_ms": statistics.median(r["spin_after_ms"] for r in runs),
            "noisy_runs": sum(1 for r in runs if r["noisy"]),
            "problems": problems,
        },
        "runs": runs,
    }

"""Command-line interface: ``python -m repro <command>``.

Commands
========

``info``
    Package, catalog and scenario-graph summary.
``tables``
    Print the static artifacts (Tables 1–2, Figures 2/4/5/8) — no
    simulation, instant.
``reproduce [--runs N] [--jobs N] [--seed S] [--json] [...]``
    Run the full evaluation (Table 3, Figure 9, agility, consistency
    included); exits non-zero if any paper claim fails to reproduce.
    Experiments fan out over forked worker processes (``--jobs``,
    default: all CPUs) and land in the result store (``.repro-results/``), so a
    second identical invocation simulates nothing.  ``--json`` prints a
    machine-readable summary to stdout (tables move to stderr);
    ``--seed`` offsets every experiment's base seed; ``--fresh``
    recomputes and overwrites stored results; ``--no-store`` disables
    the store.
``transition-matrix [--runs N] [--smoke] [--json] [...]``
    The transition-survival matrix: every FTM transition under a fault
    armed at each phase (fetch/deploy/script/remove) of each kind
    (crash/corrupt/omission), under client load.  ``--smoke`` runs the
    cheap CI subset.  Exits non-zero if any cell loses requests or
    fails to converge.
``campaign [--missions N] [--jobs N] [--json] [...]``
    The sharded statistical fault-injection campaign: missions split
    into ~100-mission shard cells, each reduced to counts the moment it
    completes, with Wilson 95% CIs computed from the streamed counts —
    peak memory is bounded by the shard size however many missions run.
    Completed shards land in the result store, so an interrupted 10k
    campaign resumes from where it stopped.
    ``--backend serial|local|remote`` picks where shards execute
    (results stay byte-identical — it is pure execution strategy);
    ``--workers host:port,...`` fans them over ``repro worker``
    processes (implies the remote backend; workers send back the unit
    values they ran, and cells are finished and stored here).
``gray-matrix [--missions N] [--factors F1,F2] [--json] [...]``
    The gray-failure matrix: every (FTM × slow resource × slowdown
    factor) cell runs missions whose primary starts *limping* mid-run
    (slow, not dead).  The latency-percentile probe must detect the
    limp (never the crash detector), PBR cells must answer with a
    proactive PBR→LFR transition, and every request must still succeed.
    Reports detection/masking rates with Wilson CIs and the mean
    detection latency; same store/backend knobs as ``campaign``.
    Exits non-zero if any gray-failure claim fails.
``worker --listen HOST:PORT [--max-batches N]``
    Serve unit batches to a remote-backend coordinator: accepts framed
    TCP batches, runs their units and answers each batch with one frame
    of ``[index, value]`` pairs.  Start one per host, then point
    ``campaign --workers`` (or ``exp.run(..., workers=[...])``) at
    them.  ``--max-batches N`` is a deterministic crash hook for the
    failover tests.
``profile <spec> [--top N] [--sort cumulative|tottime] [...]``
    Run one experiment spec single-threaded under ``cProfile`` and print
    the hottest functions, so perf work starts from data instead of
    guesses.  Specs: ``table3``, ``transition-matrix``, ``campaign``,
    ``gray-matrix``; each takes the seed and size flags, with the
    defaults, of the command that runs it (``reproduce`` for Table 3),
    so it profiles what that command runs.
``store [--list | --gc | --clear] [--store DIR]``
    Inspect or clean the cell-granular result store: ``--list`` (the
    default) prints one line per stored spec, ``--gc`` removes orphaned
    cell files left behind by edited specs, ``--clear`` drops everything.
``demo``
    A 20-second guided tour: deploy, crash, fail over, adapt on-line.
"""

from __future__ import annotations

import argparse
import sys

from repro.vocabulary import FTM_NAMES, SLOW_RESOURCES


def _cmd_info(_args) -> int:
    import repro
    from repro.core import EVENTS, build_scenario_graph
    from repro.ftm import FTM_NAMES, VARIABLE_FEATURES

    print(f"repro {repro.__version__} — adaptive fault tolerance reproduction")
    print(f"\nFTM catalog ({len(FTM_NAMES)}):")
    for ftm in FTM_NAMES:
        slots = VARIABLE_FEATURES[ftm]
        print(
            f"  {ftm:8s} syncBefore={slots['syncBefore'].__name__:15s} "
            f"proceed={slots['proceed'].__name__:17s} "
            f"syncAfter={slots['syncAfter'].__name__}"
        )
    states, edges = build_scenario_graph()
    kinds = {}
    for edge in edges:
        kinds[edge.kind] = kinds.get(edge.kind, 0) + 1
    print(
        f"\nscenario graph: {len(states)} states, {len(edges)} edges "
        f"({', '.join(f'{v} {k}' for k, v in sorted(kinds.items()))})"
    )
    print(f"parameter events: {', '.join(e.name for e in EVENTS)}")
    return 0


def _cmd_tables(args) -> int:
    from repro.eval import ARTIFACTS

    for artifact in ARTIFACTS:
        if artifact.static:
            print(artifact.run(artifact.spec(args), jobs=1).text)
            print()
    return 0


def _run_options(args) -> dict:
    """The :func:`repro.exp.run` keywords the common run flags ask for."""
    from repro import exp

    return {
        "jobs": exp.default_jobs() if args.jobs is None else args.jobs,
        "store": None if args.no_store else exp.ResultStore(args.store),
        "fresh": args.fresh,
    }


def _run_artifact(args, artifact, out, **how):
    """Run one artifact of the table with ``args``' seed and size flags
    and the :func:`repro.exp.run` keywords ``how``; print its rendering
    and status line to ``out`` and return its
    :class:`~repro.eval.Outcome`."""
    spec = artifact.spec(args)
    outcome = artifact.run(spec, **how)
    result = outcome.result
    print(outcome.text, file=out)
    status = artifact.ok if not outcome.problems else f"FAILS: {outcome.problems}"
    print(f"  -> {artifact.title}: {status} "
          f"[{result.cells_cached}/{len(spec.trials)} cells from store, "
          f"{result.executed} trial(s) simulated, {result.elapsed_s:.2f}s, "
          f"backend={result.backend}]", file=out)
    return outcome


def _print_events(counts, out) -> None:
    """Where the simulated events of a run (or of several, ``counts``
    being an ``ExecutionStats``) came from, as one line on ``out``."""
    if counts.events_by_source:
        total = sum(counts.events_by_source.values()) or 1
        breakdown = ", ".join(
            f"{source} {count} ({100.0 * count / total:.0f}%)"
            for source, count in sorted(counts.events_by_source.items()))
        print(f"[events by source: {breakdown}; beats replayed "
              f"{counts.beats_replayed}, materialised "
              f"{counts.beats_materialised}]", file=out)


def _cmd_reproduce(args) -> int:
    import json
    import time

    from repro import exp
    from repro.eval import ARTIFACTS

    if args.resume and (args.no_store or args.fresh):
        print("--resume needs the result store (drop --no-store/--fresh)",
              file=sys.stderr)
        return 2
    how = _run_options(args)
    # with --json, stdout carries only the machine-readable summary
    out = sys.stderr if args.json else sys.stdout
    summaries = []
    stats = exp.ExecutionStats()
    started = time.perf_counter()
    for artifact in ARTIFACTS:
        if artifact.reproduce:
            outcome = _run_artifact(args, artifact, out, stats=stats, **how)
            print(file=out)
            summaries.append({**outcome.result.summary(),
                              "title": artifact.title,
                              "problems": outcome.problems})
    elapsed = time.perf_counter() - started
    failures = [f"{summary['title']}: {problem}" for summary in summaries
                for problem in summary["problems"]]

    served = ("all served from store" if stats.executed == 0 else
              f"fresh; {stats.cells_cached} cells from store, "
              f"{stats.cells_executed} computed")
    print(f"[timing] wall {elapsed:.2f}s, jobs={how['jobs']}, "
          f"trials simulated {stats.executed} ({served})", file=out)
    _print_events(stats, out)
    if args.json:
        print(json.dumps(
            {
                "runs": args.runs,
                "seed": args.seed,
                "jobs": how["jobs"],
                "store": None if how["store"] is None else str(how["store"].root),
                "wall_s": round(elapsed, 6),
                "total_executed": stats.executed,
                "cells_cached": stats.cells_cached,
                "cells_executed": stats.cells_executed,
                "events_by_source": dict(stats.events_by_source),
                "beats_replayed": stats.beats_replayed,
                "beats_materialised": stats.beats_materialised,
                "failures": failures,
                "artifacts": summaries,
            },
            indent=2,
        ))
    if failures:
        print(f"{len(failures)} claim(s) FAILED", file=out)
        return 1
    print("every table and figure reproduces the paper's shape", file=out)
    return 0


def _cmd_artifact(args) -> int:
    """The spec subcommands: run the artifact the command names.

    Exits non-zero when its checks find problems; with ``--json`` prints
    the run summary plus the artifact's own keys.
    """
    import json

    from repro.eval import artifact as lookup

    backend = getattr(args, "backend", None)
    workers = getattr(args, "workers", None)
    if workers and backend in ("serial", "local"):
        args.usage_error(f"--workers runs the remote backend; drop it or "
                         f"drop --backend {backend}")
    artifact = lookup(args.command)
    # with --json, stdout carries only the machine-readable summary
    out = sys.stderr if args.json else sys.stdout
    outcome = _run_artifact(args, artifact, out, backend=backend,
                            workers=workers, **_run_options(args))
    if args.json:
        print(json.dumps({**outcome.result.summary(),
                          "problems": outcome.problems,
                          **artifact.extras(outcome.data)}, indent=2))
    return 1 if outcome.problems else 0


def _cmd_profile(args) -> int:
    import cProfile
    import pstats

    from repro.eval import artifact as lookup

    # the spec's own flags get their parser only here: building one per
    # spec for every command would double the CLI's parser set-up
    parser = argparse.ArgumentParser(prog=f"repro profile {args.spec}")
    _SIZE_FLAGS[args.spec](parser)
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to the experiment base seed")
    parser.add_argument("--top", type=_positive_int, default=20,
                        help="rows of the profile to print (default: 20)")
    parser.add_argument("--sort", choices=("cumulative", "tottime"),
                        default="cumulative",
                        help="stat ordering (default: cumulative)")
    options = parser.parse_args(args.flags)
    artifact = lookup(args.spec)
    spec = artifact.spec(options)
    print(f"profiling spec {spec.name!r}: {spec.unit_count} unit(s), "
          f"jobs=1, store off ...", file=sys.stderr)
    profiler = cProfile.Profile()
    result = profiler.runcall(artifact.run, spec, jobs=1, store=None).result
    print(f"[{result.executed} trial(s) in {result.elapsed_s:.2f}s — "
          f"{result.executed / max(result.elapsed_s, 1e-9):.1f} units/s]",
          file=sys.stderr)
    _print_events(result, sys.stderr)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(options.sort).print_stats(options.top)
    return 0


def _cmd_store(args) -> int:
    from repro import exp

    store = exp.ResultStore(args.store)
    if args.clear:
        print(f"removed {store.clear()} file(s) from {store.root}")
        return 0
    if args.gc:
        print(f"gc: removed {store.gc()} orphaned file(s) from {store.root}")
        return 0
    entries = store.entries()
    if not entries:
        print(f"result store {store.root}: empty")
        return 0
    print(f"result store {store.root}: {len(entries)} entr"
          f"{'y' if len(entries) == 1 else 'ies'}")
    for entry in entries:
        digest = entry["hash"][:12] if entry["hash"] else "(no manifest)"
        print(f"  {entry['file']:44s} spec={entry['spec']} "
              f"cells={entry['cells']} {digest} [{entry['format']}]")
    return 0


def _cmd_worker(args) -> int:
    from repro.exp import distributed

    host, port = distributed.parse_address(args.listen)
    distributed.serve(host, port, max_batches=args.max_batches)
    return 0


def _cmd_demo(_args) -> int:
    from repro.core import AdaptationEngine
    from repro.eval.mission import pair_task, run_solo
    from repro.kernel import Timeout

    def demo(world, pair, client):
        engine = AdaptationEngine(world, pair)
        reply = yield from client.request(("add", 7))
        print(f"  add 7 -> {reply.value} (served by {reply.served_by})")
        print("crashing the primary ...")
        world.cluster.node("alpha").crash()
        reply = yield from client.request(("add", 3))
        print(f"  add 3 -> {reply.value} (served by {reply.served_by} — failover)")
        yield Timeout(6_000.0)
        print("transitioning PBR -> LFR on-line ...")
        report = yield from engine.transition("lfr")
        print(f"  done in {report.per_replica_ms:.0f} ms/replica "
              f"({report.component_count} components replaced)")
        reply = yield from client.request(("get",))
        print(f"  get -> {reply.value} under {pair.ftm!r}: state survived")

    print("deploying PBR over alpha/beta ...")
    run_solo(pair_task(42, "pbr", demo, client="you", timeout=400.0,
                       max_attempts=8))
    return 0


def _positive_int(text: str) -> int:
    """argparse type for flags that must be >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _slowdown(text: str) -> float:
    """argparse type for a slowdown factor: a finite float >= 1."""
    value = float(text)
    if not 1.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"slowdown factor must be >= 1 and finite, got {text}")
    return value


def _latency_ms(text: str) -> float:
    """argparse type for a latency bound: a finite float > 0."""
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text}")
    return value


def _gray_requests(text: str) -> int:
    """argparse type for ``gray-matrix --requests``: more than the fixed
    warm-up, so that some requests run while the primary limps."""
    from repro.eval.gray import GRAY_WARMUP

    value = int(text)
    if value <= GRAY_WARMUP:
        raise argparse.ArgumentTypeError(
            f"must exceed the {GRAY_WARMUP}-request warm-up, got {value}")
    return value


def _list_of(item, choices=None):
    """argparse type for ``A,B,...`` flags: a non-empty list of
    ``item``-parsed parts, each one of ``choices`` when given."""
    def parse(text: str) -> list:
        parts = [item(part.strip()) for part in text.split(",") if part.strip()]
        if not parts:
            raise argparse.ArgumentTypeError("expected at least one value")
        unknown = [part for part in parts
                   if choices is not None and part not in choices]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown {unknown} (choose from {', '.join(choices)})")
        return parts
    # argparse names the type in its "invalid ... value" usage error
    parse.__name__ = f"comma-separated {item.__name__.strip('_')} list"
    return parse


def _runs_flags(parser) -> None:
    """``--runs``: the size flag of ``reproduce`` (and so of Table 3)."""
    parser.add_argument("--runs", type=_positive_int, default=1,
                        help="seeded repetitions per experiment cell")


def _matrix_flags(parser) -> None:
    """The transition matrix's size flags."""
    _runs_flags(parser)
    parser.add_argument("--smoke", action="store_true",
                        help="CI subset: baseline + one cell per fault kind")


def _campaign_flags(parser) -> None:
    """The campaign's size flags."""
    parser.add_argument("--missions", type=_positive_int, default=100,
                        help="randomised missions to run (default: 100)")
    parser.add_argument("--cell-size", type=_positive_int, default=100,
                        help="missions per shard cell (default: 100)")
    parser.add_argument("--requests", type=_positive_int, default=30,
                        help="client requests per mission (default: 30)")


def _gray_flags(parser) -> None:
    """The gray matrix's size flags: its grid and its missions."""
    parser.add_argument("--missions", type=_positive_int, default=3,
                        help="seeded missions per matrix cell (default: 3)")
    parser.add_argument("--ftms", type=_list_of(str, FTM_NAMES),
                        default="pbr,lfr", metavar="F1,F2,...",
                        help="FTMs to grid over (default: pbr,lfr)")
    parser.add_argument("--resources", type=_list_of(str, SLOW_RESOURCES),
                        default="cpu,link,disk", metavar="R1,R2,...",
                        help="limping resources to grid over "
                             "(default: cpu,link,disk)")
    parser.add_argument("--factors", type=_list_of(_slowdown), default="4,8",
                        metavar="F1,F2,...",
                        help="slowdown factors to grid over (default: 4,8)")
    parser.add_argument("--requests", type=_gray_requests, default=200,
                        help="client requests per mission, more than its "
                             "warm-up (default: 200 — "
                             "a mission must outlive its own repair: a limped "
                             "disk slows the PBR→LFR transition to ~5 s)")
    parser.add_argument("--slo-ms", type=_latency_ms, default=30.0,
                        help="per-request latency SLO in ms (default: 30)")


#: What ``profile`` offers, by subcommand (spec name for Table 3): the
#: size flags that command (``reproduce`` for Table 3) takes, which
#: ``profile <name>`` takes too.
_SIZE_FLAGS = {
    "table3": _runs_flags,
    "transition-matrix": _matrix_flags,
    "campaign": _campaign_flags,
    "gray-matrix": _gray_flags,
}


def _add_run_flags(parser) -> None:
    """The flags every spec-running subcommand takes."""
    parser.add_argument("--jobs", type=_positive_int, default=None,
                        help="worker processes (default: all CPUs)")
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to the experiment base seed(s)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable summary on stdout")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="result-store directory (default: .repro-results)")
    parser.add_argument("--no-store", action="store_true",
                        help="disable the result store")
    parser.add_argument("--fresh", action="store_true",
                        help="recompute even when stored results exist")


def _add_backend_flags(parser) -> None:
    """``--backend``/``--workers``, and the hook that rejects their clash."""
    parser.add_argument("--backend", choices=("serial", "local", "remote"),
                        default=None,
                        help="execution backend (default: local, or remote "
                             "when --workers is given; byte-identical results)")
    parser.add_argument("--workers", type=_list_of(str),
                        default=None, metavar="HOST:PORT,...",
                        help="comma-separated repro worker addresses for the "
                             "remote backend")
    parser.set_defaults(usage_error=parser.error)


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="catalog and graph summary")
    sub.add_parser("tables", help="print the static artifacts")
    reproduce = sub.add_parser("reproduce", help="run the full evaluation")
    _runs_flags(reproduce)
    _add_run_flags(reproduce)
    reproduce.add_argument("--resume", action="store_true",
                           help="continue an interrupted run from the cells "
                                "already in the store (also the default; "
                                "rejects --no-store/--fresh)")
    matrix = sub.add_parser(
        "transition-matrix",
        help="transition-survival matrix (fault at phase x kind)",
    )
    _matrix_flags(matrix)
    _add_run_flags(matrix)
    camp = sub.add_parser(
        "campaign",
        help="sharded statistical fault-injection campaign (Wilson CIs)",
    )
    _campaign_flags(camp)
    _add_run_flags(camp)
    _add_backend_flags(camp)
    camp.add_argument("--wire", choices=("digest",), default="digest",
                      help="accepted and ignored: workers always send back "
                           "the unit values they ran; kept for scripts "
                           "that spell it out")
    gray = sub.add_parser(
        "gray-matrix",
        help="gray-failure matrix (FTM x slow resource x slowdown factor)",
    )
    _gray_flags(gray)
    _add_run_flags(gray)
    _add_backend_flags(gray)
    worker = sub.add_parser(
        "worker",
        help="serve trial batches to a remote-backend coordinator",
    )
    worker.add_argument("--listen", required=True, metavar="HOST:PORT",
                        help="address to listen on (port 0 = OS-assigned; "
                             "the bound address is printed on stdout)")
    worker.add_argument("--max-batches", type=_positive_int, default=None,
                        metavar="N",
                        help="hard-exit after N batches (crash testing)")
    worker.add_argument("--shadow", default=None, metavar="DIR",
                        help="accepted and ignored: a worker keeps no store; "
                             "kept for scripts that pass it")
    profile = sub.add_parser(
        "profile",
        help="run one spec under cProfile and print the hot spots",
    )
    profile.add_argument("spec", choices=list(_SIZE_FLAGS),
                         help="which experiment spec to profile")
    profile.add_argument("flags", nargs=argparse.REMAINDER,
                         help="its command's seed and size flags, --top N, "
                              "--sort cumulative|tottime")
    store_cmd = sub.add_parser(
        "store", help="inspect or clean the cell-granular result store"
    )
    store_cmd.add_argument("--store", default=None, metavar="DIR",
                           help="result-store directory "
                                "(default: .repro-results)")
    store_mode = store_cmd.add_mutually_exclusive_group()
    store_mode.add_argument("--list", action="store_true",
                            help="list stored entries (default)")
    store_mode.add_argument("--gc", action="store_true",
                            help="remove orphaned cell files and temp files")
    store_mode.add_argument("--clear", action="store_true",
                            help="remove every stored entry")
    sub.add_parser("demo", help="guided tour")
    args = parser.parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "tables": _cmd_tables,
        "reproduce": _cmd_reproduce,
        "transition-matrix": _cmd_artifact,
        "campaign": _cmd_artifact,
        "gray-matrix": _cmd_artifact,
        "profile": _cmd_profile,
        "store": _cmd_store,
        "worker": _cmd_worker,
        "demo": _cmd_demo,
    }
    try:
        return handlers[args.command](args)
    except Exception as exc:
        # imported late: `info`/`tables`/`demo` never load the exp layer
        from repro.exp.errors import ExperimentError

        if not isinstance(exc, ExperimentError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

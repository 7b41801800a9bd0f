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
    Experiments fan out over a process pool (``--jobs``, default: all
    CPUs) and land in the result store (``.repro-results/``), so a
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
    processes (implies the remote backend; workers persist cells into
    their shadow stores and return digests only).
``gray-matrix [--missions N] [--factors F1,F2] [--json] [...]``
    The gray-failure matrix: every (FTM × slow resource × slowdown
    factor) cell runs missions whose primary starts *limping* mid-run
    (slow, not dead).  The latency-percentile probe must detect the
    limp (never the crash detector), PBR cells must answer with a
    proactive PBR→LFR transition, and every request must still succeed.
    Reports detection/masking rates with Wilson CIs and the mean
    detection latency; same store/backend knobs as ``campaign``.
    Exits non-zero if any gray-failure claim fails.
``worker --listen HOST:PORT [--shadow DIR] [...]``
    Serve cell batches to a remote-backend coordinator: accepts framed
    TCP batches, runs each cell and persists it into its own
    content-addressed shadow store (``--shadow``, default
    ``.repro-shadow``), acking only ``(slug, hash, digest)`` tuples.
    Start one per host, then point ``campaign --workers`` (or
    ``exp.run(..., workers=[...])``) at them.  ``--max-batches N`` and
    ``--crash-after-persist N`` are deterministic crash hooks for the
    failover tests.
``profile <spec> [--top N] [--sort cumulative|tottime] [...]``
    Run one experiment spec single-threaded under ``cProfile`` and print
    the hottest functions, so perf work starts from data instead of
    guesses.  Specs: ``campaign``, ``campaign-sharded``,
    ``transition-matrix``, ``table3``.
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


def _cmd_tables(_args) -> int:
    from repro.eval import figure2, figure4, figure5, figure8, table1, table2

    for module in (table1, table2, figure2, figure4, figure5, figure8):
        print(module.render(module.generate()))
        print()
    return 0


def _cmd_reproduce(args) -> int:
    import json
    import time

    from repro import exp
    from repro.eval import (
        agility,
        consistency_eval,
        figure2,
        figure4,
        figure5,
        figure8,
        figure9,
        table1,
        table2,
        table3,
        transition_matrix,
    )

    seed = args.seed
    jobs = exp.default_jobs() if args.jobs is None else max(1, args.jobs)
    store = None if args.no_store else exp.ResultStore(args.store)
    if args.resume and (args.no_store or args.fresh):
        print("--resume needs the result store (drop --no-store/--fresh)",
              file=sys.stderr)
        return 2
    # with --json, stdout carries only the machine-readable summary
    out = sys.stderr if args.json else sys.stdout

    artifacts = [
        ("Table 1", table1, table1.spec(),
         lambda d: [] if table1.fidelity(d)["matches"] >= 30 else ["fidelity"]),
        ("Table 2", table2, table2.spec(), lambda _d: []),
        ("Table 3", table3,
         table3.spec(runs=args.runs, base_seed=1000 + seed),
         table3.shape_checks),
        ("Figure 2", figure2, figure2.spec(), figure2.coverage),
        ("Figure 4", figure4, figure4.spec(), figure4.shape_checks),
        ("Figure 5", figure5, figure5.spec(), figure5.shape_checks),
        ("Figure 8", figure8, figure8.spec(), figure8.fidelity),
        ("Figure 9", figure9,
         figure9.spec(runs=args.runs, base_seed=2000 + seed),
         figure9.shape_checks),
        ("Sec 6.2", agility, agility.spec(seed=3000 + seed),
         agility.shape_checks),
        ("Sec 5.3", consistency_eval,
         consistency_eval.spec(runs=max(2, args.runs), base_seed=4000 + seed),
         consistency_eval.shape_checks),
        ("Transition matrix", transition_matrix,
         transition_matrix.spec(runs=args.runs, base_seed=7000 + seed),
         transition_matrix.shape_checks),
    ]

    failures = []
    summaries = []
    stats = exp.ExecutionStats()
    started = time.perf_counter()
    for title, module, spec, checks in artifacts:
        result = exp.run(spec, jobs=jobs, store=store, fresh=args.fresh,
                         stats=stats)
        data = module.from_results(result.results)
        print(module.render(data), file=out)
        problems = checks(data)
        status = "reproduces" if not problems else f"FAILS: {problems}"
        plural = "" if result.executed == 1 else "s"
        if result.cached:
            source = "result store"
        elif result.cells_cached:
            source = (f"resumed {result.cells_cached}/{len(spec.trials)} "
                      f"cells, {result.executed} trial{plural}, "
                      f"{result.elapsed_s:.2f}s")
        else:
            source = f"{result.executed} trial{plural}, {result.elapsed_s:.2f}s"
        print(f"  -> {title}: {status} [{source}]\n", file=out)
        failures.extend(f"{title}: {p}" for p in problems)
        summary = result.summary()
        summary["title"] = title
        summary["problems"] = problems
        summaries.append(summary)
    elapsed = time.perf_counter() - started

    total_executed = stats.executed
    served = ("all served from store" if total_executed == 0 else
              f"fresh; {stats.cells_cached} cells from store, "
              f"{stats.cells_executed} computed")
    print(
        f"[timing] wall {elapsed:.2f}s, jobs={jobs}, "
        f"trials simulated {total_executed} ({served})",
        file=out,
    )
    if stats.events_by_source:
        breakdown = ", ".join(
            f"{source} {count}"
            for source, count in sorted(stats.events_by_source.items())
        )
        print(f"[events] by source: {breakdown}; beats replayed "
              f"{stats.beats_replayed}, materialised "
              f"{stats.beats_materialised}", file=out)
    if args.json:
        print(json.dumps(
            {
                "runs": args.runs,
                "seed": seed,
                "jobs": jobs,
                "store": None if store is None else str(store.root),
                "wall_s": round(elapsed, 6),
                "total_executed": total_executed,
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


def _run_spec_command(args, label, spec, from_results, render, checks,
                      extras, ok="clean") -> int:
    """The shared body of the spec subcommands.

    Runs ``spec`` as the common flags say (jobs, store, backend,
    workers), prints the rendered table and one status line, and with
    ``--json`` the run summary plus ``extras(data)`` — the subcommand's
    own keys.  Exits non-zero when ``checks(data)`` finds problems.
    """
    import json

    from repro import exp

    backend = getattr(args, "backend", None)
    workers = getattr(args, "workers", None)
    if workers and backend in ("serial", "local"):
        args.usage_error(f"--workers runs the remote backend; drop it or "
                         f"drop --backend {backend}")
    jobs = exp.default_jobs() if args.jobs is None else args.jobs
    store = None if args.no_store else exp.ResultStore(args.store)
    # with --json, stdout carries only the machine-readable summary
    out = sys.stderr if args.json else sys.stdout

    result = exp.run(spec, jobs=jobs, store=store, fresh=args.fresh,
                     backend=backend, workers=workers)
    data = from_results(result.results)
    print(render(data), file=out)
    problems = checks(data)
    status = ok if not problems else f"FAILS: {problems}"
    wire = (f", digest_acked={result.cells_acked_digest}, "
            f"shipped_full={result.cells_shipped_full}"
            if result.backend == "remote" else "")
    print(f"  -> {label}: {status} "
          f"[{result.cells_cached}/{len(spec.trials)} cells from store, "
          f"{result.executed} trial(s) simulated, {result.elapsed_s:.2f}s, "
          f"backend={result.backend}{wire}]", file=out)
    if args.json:
        summary = result.summary()
        summary["problems"] = problems
        summary.update(extras(data))
        print(json.dumps(summary, indent=2))
    return 1 if problems else 0


def _cmd_transition_matrix(args) -> int:
    from repro.eval import transition_matrix

    spec = transition_matrix.spec(
        runs=args.runs, base_seed=7000 + args.seed, smoke=args.smoke
    )
    return _run_spec_command(
        args, "Transition matrix", spec, transition_matrix.from_results,
        transition_matrix.render, transition_matrix.shape_checks,
        lambda data: {"grid": {
            transition: {
                fault: [o.status for o in outcomes]
                for fault, outcomes in row.items()
            }
            for transition, row in data["cells"].items()
        }},
        ok="reproduces",
    )


def _cmd_campaign(args) -> int:
    from repro.eval import campaign

    spec = campaign.sharded_spec(
        missions=args.missions, base_seed=5000 + args.seed,
        requests=args.requests, cell_size=args.cell_size,
    )
    return _run_spec_command(
        args, "Campaign", spec, campaign.from_shard_results,
        campaign.render_sharded, campaign.shard_shape_checks,
        lambda data: {"campaign": {key: data[key] for key in (
            "missions", "shards", "clean_missions", "exactly_once_missions",
            "masking_rate", "masking_ci95", "exactly_once_rate",
            "exactly_once_ci95",
        )}},
    )


def _cmd_gray_matrix(args) -> int:
    from repro.eval import gray

    spec = gray.spec(
        missions=args.missions, base_seed=41_000 + args.seed,
        ftms=args.ftms, resources=args.resources, factors=args.factors,
        requests=args.requests, slo_ms=args.slo_ms,
    )
    return _run_spec_command(
        args, "Gray matrix", spec, gray.from_results, gray.render,
        gray.shape_checks,
        lambda data: {"gray": {key: data[key] for key in (
            "missions", "sent", "ok", "detected", "transitioned",
            "peer_suspected", "slo_misses",
        )}},
    )


#: Specs the ``profile`` command can build, name -> builder(args).  Each
#: builder applies the profile command's size knobs to the real spec
#: factory, so the profile measures exactly what the experiments run.
_PROFILE_SPECS = {
    "campaign": lambda args: _eval_module("campaign").spec(
        missions=args.missions, base_seed=5000 + args.seed,
        requests=args.requests,
    ),
    "campaign-sharded": lambda args: _eval_module("campaign").sharded_spec(
        missions=args.missions, base_seed=5000 + args.seed,
        requests=args.requests,
    ),
    "transition-matrix": lambda args: _eval_module("transition_matrix").spec(
        runs=args.runs, base_seed=7000 + args.seed, smoke=True,
    ),
    "gray-matrix": lambda args: _eval_module("gray").spec(
        missions=args.missions, base_seed=41_000 + args.seed,
    ),
    "table3": lambda args: _eval_module("table3").spec(
        runs=args.runs, base_seed=1000 + args.seed,
    ),
}


def _eval_module(name: str):
    """Late import of ``repro.eval.<name>`` (keeps ``--help`` instant)."""
    import importlib

    return importlib.import_module(f"repro.eval.{name}")


def _cmd_profile(args) -> int:
    import cProfile
    import pstats

    from repro import exp

    spec = _PROFILE_SPECS[args.spec](args)
    print(f"profiling spec {spec.name!r}: {spec.unit_count} unit(s), "
          f"jobs=1, store off ...", file=sys.stderr)
    profiler = cProfile.Profile()
    profiler.enable()
    result = exp.run(spec, jobs=1, store=None)
    profiler.disable()
    print(f"[{result.executed} trial(s) in {result.elapsed_s:.2f}s — "
          f"{result.executed / max(result.elapsed_s, 1e-9):.1f} units/s]",
          file=sys.stderr)
    if result.events_by_source:
        total = sum(result.events_by_source.values()) or 1
        breakdown = ", ".join(
            f"{source} {count} ({100.0 * count / total:.0f}%)"
            for source, count in sorted(result.events_by_source.items())
        )
        print(f"[events by source: {breakdown}; beats replayed "
              f"{result.beats_replayed}, materialised "
              f"{result.beats_materialised}]", file=sys.stderr)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
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
    distributed.serve(host, port, max_batches=args.max_batches,
                      shadow=args.shadow,
                      crash_after_persist=args.crash_after_persist)
    return 0


def _cmd_demo(_args) -> int:
    from repro.core import AdaptationEngine
    from repro.ftm import Client, deploy_ftm_pair
    from repro.kernel import Timeout, World

    world = World(seed=42)
    world.add_nodes(["alpha", "beta", "client"])

    def scenario():
        print("deploying PBR over alpha/beta ...")
        pair = yield from deploy_ftm_pair(world, "pbr", ["alpha", "beta"])
        pair.enable_recovery(restart_delay=300.0)
        client = Client(world, world.cluster.node("client"), "you",
                        pair.node_names())
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

    world.run_process(scenario(), name="demo")
    return 0


def _positive_int(text: str) -> int:
    """argparse type for flags that must be >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _slowdown(text: str) -> float:
    """argparse type for a slowdown factor: a float >= 1."""
    value = float(text)
    if not value >= 1.0:
        raise argparse.ArgumentTypeError(f"slowdown factor must be >= 1, got {text}")
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
    reproduce.add_argument("--runs", type=_positive_int, default=1,
                           help="seeded repetitions per experiment cell")
    _add_run_flags(reproduce)
    reproduce.add_argument("--resume", action="store_true",
                           help="continue an interrupted run from the cells "
                                "already in the store (also the default; "
                                "rejects --no-store/--fresh)")
    matrix = sub.add_parser(
        "transition-matrix",
        help="transition-survival matrix (fault at phase x kind)",
    )
    matrix.add_argument("--runs", type=_positive_int, default=1,
                        help="seeded repetitions per matrix cell")
    _add_run_flags(matrix)
    matrix.add_argument("--smoke", action="store_true",
                        help="CI subset: baseline + one cell per fault kind")
    camp = sub.add_parser(
        "campaign",
        help="sharded statistical fault-injection campaign (Wilson CIs)",
    )
    camp.add_argument("--missions", type=_positive_int, default=100,
                      help="randomised missions to run (default: 100)")
    camp.add_argument("--cell-size", type=_positive_int, default=100,
                      help="missions per shard cell (default: 100)")
    camp.add_argument("--requests", type=_positive_int, default=30,
                      help="client requests per mission (default: 30)")
    _add_run_flags(camp)
    _add_backend_flags(camp)
    camp.add_argument("--wire", choices=("digest",), default="digest",
                      help="remote return path; 'digest' (workers "
                           "shadow-persist cells and ack ~100 B/cell) is the "
                           "only wire, the flag is kept for scripts that "
                           "spell it out")
    gray = sub.add_parser(
        "gray-matrix",
        help="gray-failure matrix (FTM x slow resource x slowdown factor)",
    )
    gray.add_argument("--missions", type=_positive_int, default=3,
                      help="seeded missions per matrix cell (default: 3)")
    gray.add_argument("--ftms", type=_list_of(str, FTM_NAMES), default="pbr,lfr",
                      metavar="F1,F2,...",
                      help="FTMs to grid over (default: pbr,lfr)")
    gray.add_argument("--resources", type=_list_of(str, SLOW_RESOURCES),
                      default="cpu,link,disk", metavar="R1,R2,...",
                      help="limping resources to grid over "
                           "(default: cpu,link,disk)")
    gray.add_argument("--factors", type=_list_of(_slowdown), default="4,8",
                      metavar="F1,F2,...",
                      help="slowdown factors to grid over (default: 4,8)")
    gray.add_argument("--requests", type=_positive_int, default=200,
                      help="client requests per mission (default: 200 — "
                           "a mission must outlive its own repair: a limped "
                           "disk slows the PBR→LFR transition to ~5 s)")
    gray.add_argument("--slo-ms", type=float, default=30.0,
                      help="per-request latency SLO in ms (default: 30)")
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
                        help="shadow-store directory for completed cells "
                             "(default: .repro-shadow)")
    worker.add_argument("--crash-after-persist", type=_positive_int,
                        default=None, metavar="N",
                        help="hard-exit after the Nth freshly executed cell "
                             "is shadow-persisted but before its digest ack "
                             "(crash-window testing)")
    profile = sub.add_parser(
        "profile",
        help="run one spec under cProfile and print the hot spots",
    )
    profile.add_argument("spec", choices=sorted(_PROFILE_SPECS),
                         help="which experiment spec to profile")
    profile.add_argument("--runs", type=_positive_int, default=1,
                         help="seeded repetitions per cell (grid specs)")
    profile.add_argument("--missions", type=_positive_int, default=50,
                         help="missions (campaign specs; default: 50)")
    profile.add_argument("--requests", type=_positive_int, default=30,
                         help="client requests per mission (default: 30)")
    profile.add_argument("--seed", type=int, default=0,
                         help="offset added to the experiment base seed")
    profile.add_argument("--top", type=_positive_int, default=20,
                         help="rows of the profile to print (default: 20)")
    profile.add_argument("--sort", choices=("cumulative", "tottime"),
                         default="cumulative",
                         help="stat ordering (default: cumulative)")
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
        "transition-matrix": _cmd_transition_matrix,
        "campaign": _cmd_campaign,
        "gray-matrix": _cmd_gray_matrix,
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

"""Evaluation harness: regenerates every table and figure of the paper.

Every artifact is a declarative experiment: its submodule's ``spec(...)``
returns an :class:`repro.exp.ExperimentSpec` of pure trials
``(seed, params) -> dict``, ``from_results`` turns the runner's cells
into its data, ``render`` prints that paper-style and ``shape_checks``
lists the claims it violates (empty = reproduced).

:data:`ARTIFACTS` is the one table of them.  Each :class:`Artifact`
names its module as a string (imported on first use, so a command
loads only what it runs), builds its spec from command-line options —
its base seed is written there once, offset by ``options.seed`` — and
names the functions that play the roles above.  :meth:`Artifact.run`
is the one run-render-check path: ``repro reproduce``, ``tables``,
``profile``, the ``transition-matrix``, ``campaign`` and
``gray-matrix`` commands and ``examples/reproduce_paper.py`` all go
through it.
"""

import importlib

#: Re-exported helpers -> the submodule that defines them.
_HELPERS = {
    "render_table": "format",
    "class_sloc": "sloc", "count_sloc": "sloc", "module_sloc": "sloc",
    "format_interval": "stats", "wilson_interval": "stats",
}


class Outcome:
    """What one artifact run left: the runner's ``result``, the artifact's
    ``data``, its rendering ``text`` and the claims it violates."""

    __slots__ = ("result", "data", "text", "problems")

    def __init__(self, result, data, text, problems):
        self.result, self.data, self.text, self.problems = (
            result, data, text, problems)


class Artifact:
    """One paper artifact: its spec, and how its results are read.

    ``name`` is the spec's name, which is also its result-store
    directory; ``title`` labels it in ``reproduce``'s report; ``module``
    is the ``repro.eval`` submodule that defines it.  ``build(module,
    options)`` returns its spec, ``options`` carrying ``seed`` and the
    size flags of the command that runs it.  ``aggregate``, ``render``
    and ``checks`` name the module functions that read its results
    (``checks=None``: no claim), and ``ok`` is the status word when the
    checks pass.  ``tables`` prints the ``static`` ones (they simulate
    nothing) and ``reproduce`` runs those with ``reproduce`` set;
    ``command`` is the subcommand that runs it alone, ``extras(data)``
    that command's own ``--json`` keys.

    A plain class, not a dataclass: every CLI process builds the table,
    and generating dataclass methods would cost ~2 ms of its start-up.
    """

    def __init__(self, name, title, module, build, *, aggregate="from_results",
                 render="render", checks="shape_checks", ok="reproduces",
                 static=False, reproduce=True, command=None, extras=None):
        self.name, self.title, self.module, self.build = (
            name, title, module, build)
        self.aggregate, self.render, self.checks = aggregate, render, checks
        self.ok, self.static, self.reproduce = ok, static, reproduce
        self.command, self.extras = command, extras

    def load(self):
        """The artifact's module, imported on first use."""
        return importlib.import_module(f"{__name__}.{self.module}")

    def spec(self, options):
        """The experiment spec ``options`` (seed and size flags) ask for."""
        return self.build(self.load(), options)

    def run(self, spec, **how) -> Outcome:
        """Run ``spec`` (from :meth:`spec`) as ``how`` says — the keywords
        of :func:`repro.exp.run` — then aggregate, render and check it."""
        from repro import exp

        module = self.load()
        result = exp.run(spec, **how)
        data = getattr(module, self.aggregate)(result.results)
        problems = [] if self.checks is None else getattr(module, self.checks)(data)
        return Outcome(result, data, getattr(module, self.render)(data), problems)


def _static(module, _options):
    return module.spec()


def _keys(label: str, *keys: str):
    return lambda data: {label: {key: data[key] for key in keys}}


#: Every artifact, in ``reproduce``'s order.
ARTIFACTS = (
    Artifact("table1", "Table 1", "table1", _static, static=True),
    Artifact("table2", "Table 2", "table2", _static, checks=None, static=True),
    Artifact("table3", "Table 3", "table3",
             lambda m, o: m.spec(runs=o.runs, base_seed=1000 + o.seed)),
    Artifact("figure2", "Figure 2", "figure2", _static, checks="coverage",
             static=True),
    Artifact("figure4", "Figure 4", "figure4", _static, static=True),
    Artifact("figure5", "Figure 5", "figure5", _static, static=True),
    Artifact("figure8", "Figure 8", "figure8", _static, checks="fidelity",
             static=True),
    Artifact("figure9", "Figure 9", "figure9",
             lambda m, o: m.spec(runs=o.runs, base_seed=2000 + o.seed)),
    Artifact("agility", "Sec 6.2", "agility",
             lambda m, o: m.spec(seed=3000 + o.seed)),
    Artifact("consistency", "Sec 5.3", "consistency_eval",
             lambda m, o: m.spec(runs=max(2, o.runs), base_seed=4000 + o.seed)),
    # reproduce runs the whole matrix; only its own command offers --smoke
    Artifact("transition_matrix", "Transition matrix", "transition_matrix",
             lambda m, o: m.spec(runs=o.runs, base_seed=7000 + o.seed,
                                 smoke=getattr(o, "smoke", False)),
             command="transition-matrix",
             extras=lambda data: {"grid": {
                 transition: {fault: [cell.status for cell in outcomes]
                              for fault, outcomes in row.items()}
                 for transition, row in data["cells"].items()
             }}),
    Artifact("campaign-sharded", "Campaign", "campaign",
             lambda m, o: m.sharded_spec(
                 missions=o.missions, base_seed=5000 + o.seed,
                 requests=o.requests, cell_size=o.cell_size),
             aggregate="from_shard_results", render="render_sharded",
             checks="shard_shape_checks", ok="clean", reproduce=False,
             command="campaign",
             extras=_keys("campaign", "missions", "shards", "clean_missions",
                          "exactly_once_missions", "masking_rate",
                          "masking_ci95", "exactly_once_rate",
                          "exactly_once_ci95")),
    Artifact("gray-matrix", "Gray matrix", "gray",
             lambda m, o: m.spec(
                 missions=o.missions, base_seed=41_000 + o.seed, ftms=o.ftms,
                 resources=o.resources, factors=o.factors,
                 requests=o.requests, slo_ms=o.slo_ms),
             ok="clean", reproduce=False, command="gray-matrix",
             extras=_keys("gray", "missions", "sent", "ok", "detected",
                          "transitioned", "peer_suspected", "slo_misses")),
)


def artifact(key: str) -> Artifact:
    """The artifact whose spec name or subcommand is ``key``."""
    for entry in ARTIFACTS:
        if key in (entry.name, entry.command):
            return entry
    raise KeyError(f"no artifact {key!r}")


def __getattr__(name: str):
    """Import an artifact module or helper on first use (PEP 562).

    A command imports what it runs: ``repro campaign`` replaying a full
    store must not pay for Figure 9's simulator imports.
    """
    if name in _HELPERS:
        module = importlib.import_module(f"{__name__}.{_HELPERS[name]}")
        value = getattr(module, name)
    elif name in __all__:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "agility",
    "campaign",
    "consistency_eval",
    "figure2",
    "figure4",
    "figure5",
    "figure8",
    "figure9",
    "gray",
    "table1",
    "table2",
    "table3",
    "transition_matrix",
    "render_table",
    "class_sloc",
    "count_sloc",
    "module_sloc",
    "format_interval",
    "wilson_interval",
]

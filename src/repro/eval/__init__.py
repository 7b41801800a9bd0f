"""Evaluation harness: regenerates every table and figure of the paper.

Each submodule exposes ``generate(...)`` (the measured data) and
``render(data)`` (a paper-style plain-text rendering); most also expose
``shape_checks(data)`` / ``fidelity(data)`` returning the list of
violated claims (empty = the experiment reproduces).

Every artifact is also a declarative experiment: ``spec(...)`` returns
an :class:`repro.exp.ExperimentSpec` whose trials are pure functions
``(seed, params) -> dict``, and ``from_results(results)`` rebuilds the
``generate()`` data shape from the runner's raw cells — so any artifact
can be executed in parallel and cached via :func:`repro.exp.run`.

``campaign`` has one form, sharded: ``sharded_spec(...)`` reduces each
shard of missions to counts as it completes, and ``generate_sharded``,
``from_shard_results``, ``shard_shape_checks`` and ``render_sharded``
play the roles above over those streamed counts.

=================  =============================================
module             paper artifact
=================  =============================================
``table1``         Table 1 — (FT, A, R) parameters of the FTMs
``table2``         Table 2 — Before/Proceed/After scheme
``table3``         Table 3 — deployment vs transition times
``figure2``        Figure 2 — FTM transition graph
``figure4``        Figure 4 — development effort (proxy)
``figure5``        Figure 5 — pattern SLOC
``figure8``        Figure 8 — scenario graph
``figure9``        Figure 9 — transition-phase breakdown
``agility``        Sec. 6.2 — agile vs preprogrammed
``consistency_eval``  Sec. 5.3 — distributed consistency claims
``transition_matrix``  transition-survival matrix (fault × phase)
``gray``           gray-failure matrix (limplock × FTM sweeps)
``campaign``       statistical fault-injection campaign (Wilson CIs)
=================  =============================================
"""

import importlib

#: Re-exported helpers -> the submodule that defines them.
_HELPERS = {
    "render_table": "format",
    "class_sloc": "sloc", "count_sloc": "sloc", "module_sloc": "sloc",
    "format_interval": "stats", "wilson_interval": "stats",
}


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

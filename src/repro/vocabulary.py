"""Fault and FTM vocabulary as plain data.

The names the CLI and experiment specs grid over, and the fault injector
and FTM catalogue validate against.  They live outside the simulator so
that parsing a command, building a spec or replaying a stored result
loads none of it; :mod:`repro.kernel.faults` and :mod:`repro.ftm.catalog`
re-export them.
"""

#: Canonical FTM names, in the order the paper's Table 3 lists them.
FTM_NAMES = ("pbr", "lfr", "pbr+tr", "lfr+tr", "a+pbr", "a+lfr")

#: The resources a ``slow`` :class:`~repro.kernel.faults.Fault` can degrade.
SLOW_RESOURCES = ("cpu", "link", "disk")

#: The four phases of the resilient transition path that accept faults.
TRANSITION_PHASES = ("fetch", "deploy", "script", "remove")
#: The fault kinds a transition phase can be hit with.
TRANSITION_FAULT_KINDS = ("crash", "corrupt", "omission", "slow")

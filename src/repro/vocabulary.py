"""Fault vocabulary as plain data.

The names experiment specs grid over and the fault injector validates
against.  They live outside :mod:`repro.kernel` so that building a spec
or replaying a stored result — which needs the words, not the simulator
— does not execute the kernel package; :mod:`repro.kernel.faults`
re-exports them.
"""

#: The resources :meth:`FaultInjector.arm_slow` can degrade.
SLOW_RESOURCES = ("cpu", "link", "disk")

#: The four phases of the resilient transition path that accept faults.
TRANSITION_PHASES = ("fetch", "deploy", "script", "remove")
#: The fault kinds a transition phase can be hit with.
TRANSITION_FAULT_KINDS = ("crash", "corrupt", "omission", "slow")

"""Where the spec modules meet the simulator: at the first mission.

``campaign``, ``gray`` and ``transition_matrix`` import the simulator
inside their ``*_task`` builders, so replaying a stored result loads
none of it.  Their digested ``_trial`` functions call a module-level
``run_solo``, which has to exist before that first mission: this one,
which fetches the kernel's when called.
"""


def run_solo(task):
    """:func:`repro.kernel.run_solo`, imported when a mission runs."""
    from repro.kernel import run_solo as kernel_run_solo

    return kernel_run_solo(task)

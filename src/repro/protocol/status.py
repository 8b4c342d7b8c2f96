"""Worker lifecycle states.

A leaf module (no simulator imports) so both the execution core
(:mod:`repro.sim.worker`) and the steal-protocol layer
(:mod:`repro.protocol`) can share the enum without an import cycle.
"""

from __future__ import annotations

from enum import IntEnum

__all__ = ["WorkerStatus", "RUNNING", "WAITING", "DONE"]


class WorkerStatus(IntEnum):
    """Lifecycle of a rank."""

    RUNNING = 0  # has work; an EXEC event is outstanding
    WAITING = 1  # empty stack; one steal request outstanding
    DONE = 2  # received the termination broadcast


# Module-level aliases for the per-message hot paths: a module global
# load costs ~12 ns against ~150 ns for ``WorkerStatus.X`` (an enum
# class attribute lookup).  They are the enum members themselves, so
# ``is`` comparisons against either spelling agree.
RUNNING = WorkerStatus.RUNNING
WAITING = WorkerStatus.WAITING
DONE = WorkerStatus.DONE

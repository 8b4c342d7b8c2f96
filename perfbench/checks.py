"""Output checks.  Each returns a list of violation messages (empty = ok)."""

from __future__ import annotations

import numpy as np

#: Counters that must repeat exactly across runs with one seed.
DETERMINISTIC = (
    "sim.events",
    "uts.nodes",
    "protocol.steal_requests",
    "protocol.failed_steals",
    "digest",
)


def check_run(result, profile, oracle_nodes: int, per_node_time: float) -> list[str]:
    """Physics and accounting checks on one simulation result."""
    out = []
    if result.total_nodes != oracle_nodes:
        out.append(
            f"total_nodes {result.total_nodes} != sequential count {oracle_nodes}"
        )
    answered = result.failed_steals + result.successful_steals
    # Every request is answered except at most one outstanding per rank
    # when Finish arrives.
    if not answered <= result.steal_requests <= answered + result.nranks:
        out.append(
            f"steal_requests {result.steal_requests} outside "
            f"[{answered}, {answered + result.nranks}] (failed + successful "
            f"+ up to nranks outstanding)"
        )
    floor = oracle_nodes * per_node_time / result.nranks
    if not result.total_time >= floor:
        out.append(f"total_time {result.total_time} < baseline/nranks {floor}")
    reached = profile.occupancies <= profile.max_occupancy
    levels = np.concatenate([profile.starting[reached], profile.ending[reached]])
    if not reached.any() or not np.isfinite(levels).all():
        out.append("SL/EL profile is not finite over the reached occupancies")
    return out


def compare_counters(first: dict, found: dict) -> list[str]:
    """Flag a run whose deterministic counters differ from the first run's."""
    return [
        f"{key} disagrees for one seed: {first[key]} then {found[key]}"
        for key in DETERMINISTIC
        if first[key] != found[key]
    ]


def check_service_pass(stats, requests: int, cold: int, executions: int) -> list[str]:
    """Service accounting over one pass (one warm-up job included).

    ``cold`` counts requests that waited on an execution and
    ``executions`` the distinct jobs among them; the rest joined a job
    already in flight.
    """
    out = []
    if stats.submitted != requests + 1:
        out.append(f"submitted {stats.submitted} != requests {requests} + warm-up")
    if stats.executed != executions + 1:
        out.append(
            f"executed {stats.executed} != non-join cold misses {executions} + warm-up"
        )
    if stats.dedup_joins != cold - executions:
        out.append(f"dedup_joins {stats.dedup_joins} != {cold - executions}")
    if stats.failed:
        out.append(f"{stats.failed} jobs failed")
    return out

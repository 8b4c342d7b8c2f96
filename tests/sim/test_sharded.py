"""Differential suite: sharded engine vs sequential, bit for bit.

The sharded engine's contract (`repro.sim.shard`) is not statistical
equivalence but *bit-identity*: same SimOutcome metrics, same per-rank
worker counters, same canonical trace bytes, for every configuration
the sequential engine accepts (minus NIC contention, rejected at
config time).  These tests enforce that across the full selector and
steal-policy registries, shard counts 1-8, aligned and non-aligned
allocations, and both the in-process and multi-process drivers.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import WorkStealingConfig
from repro.errors import ConfigurationError, SimulationError
from repro.net.latency import UniformLatency
from repro.sim import shard as shard_mod
from repro.sim.cluster import Cluster
from repro.sim.shard import (
    ShardedCluster,
    auto_shard_workers,
    auto_shards,
    shard_bounds,
)
from repro.uts.params import T3XS
from repro.ws import run_uts
from repro.ws.results import RunResult

SELECTORS = [
    "reference",
    "rand",
    "tofu",
    "hierarchical",
    "lastvictim",
    "skew[1.5]",
    "hier[0.7]",
    "latskew[1.0]",
    "adapt-eps[0.2]",
    "adapt-sr[0.9]",
    "adapt-backoff[2]",
]
POLICIES = ["one", "half", "frac[0.3]", "adaptive[2]"]

ADAPTIVE_SELECTORS = ["adapt-eps[0.2]", "adapt-sr[0.9]", "adapt-backoff[2]"]


def _config(**kw) -> WorkStealingConfig:
    kw.setdefault("tree", T3XS)
    kw.setdefault("nranks", 16)
    kw.setdefault("event_trace", True)
    return WorkStealingConfig(**kw)


_SEQ_CACHE: dict = {}


def _sequential(cfg: WorkStealingConfig) -> RunResult:
    key = (cfg.fingerprint(), cfg.trace, cfg.event_trace)
    if key not in _SEQ_CACHE:
        _SEQ_CACHE[key] = RunResult.from_outcome(Cluster(cfg).run())
    return _SEQ_CACHE[key]


@contextlib.contextmanager
def engine_flags(**flags):
    """Pin the sharded engine's optimisation flags for one run.

    Children of the multiprocess driver inherit the patched module
    globals under the fork start method, so this drives both drivers.
    """
    saved = {name: getattr(shard_mod, name) for name in flags}
    for name, value in flags.items():
        setattr(shard_mod, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(shard_mod, name, value)


def assert_identical(
    cfg: WorkStealingConfig,
    shards: int,
    workers: int = 1,
    transport: str = "pipe",
):
    """Run both engines and compare every observable, bit for bit."""
    seq = _sequential(cfg)
    sharded_cfg = replace(
        cfg,
        engine="sharded",
        shards=shards,
        shard_workers=workers,
        shard_transport=transport,
    )
    sh = RunResult.from_outcome(ShardedCluster(sharded_cfg).run())
    assert seq.to_dict() == sh.to_dict()
    if seq.events is not None:
        assert seq.events.canonical_bytes() == sh.events.canonical_bytes()
    if seq.trace is not None:
        assert sh.trace is not None
        for (ta, sa), (tb, sb) in zip(
            seq.trace.transitions, sh.trace.transitions
        ):
            assert np.array_equal(ta, tb)
            assert np.array_equal(sa, sb)


class TestPartition:
    def test_auto_shards_scales_with_ranks(self):
        assert auto_shards(16) == 1
        assert auto_shards(1024) == 2
        assert auto_shards(4096) == 8
        assert auto_shards(1 << 20) == 16

    def test_bounds_cover_contiguously(self):
        bounds, aligned = shard_bounds(16, 4, np.arange(16))
        assert bounds == [0, 4, 8, 12, 16]
        assert aligned

    def test_bounds_snap_to_node_boundaries(self):
        # 3 ranks per node: ideal cut 8 falls inside a node -> snaps to 6.
        rank_nodes = np.repeat(np.arange(6), 3)[:16]
        bounds, aligned = shard_bounds(16, 2, rank_nodes)
        assert aligned
        cut = bounds[1]
        assert rank_nodes[cut] != rank_nodes[cut - 1]

    def test_interleaved_nodes_are_not_aligned(self):
        # Round-robin [0,1,0,1,...]: every adjacent pair changes node,
        # yet every node spans every shard — must NOT count as aligned
        # (the wide lookahead window would be unsound).
        bounds, aligned = shard_bounds(16, 4, np.array([0, 1] * 8))
        assert not aligned

    def test_single_node_not_aligned(self):
        _, aligned = shard_bounds(8, 4, np.zeros(8, dtype=int))
        assert not aligned

    def test_single_shard_trivially_aligned(self):
        bounds, aligned = shard_bounds(8, 1, np.zeros(8, dtype=int))
        assert bounds == [0, 8]
        assert aligned


class TestConfigValidation:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            _config(engine="warp")

    def test_sharded_with_nic_contention_rejected(self):
        with pytest.raises(ConfigurationError):
            _config(engine="sharded", nic_service_time=1e-7)

    def test_engine_knobs_excluded_from_fingerprint(self):
        base = _config()
        assert (
            base.fingerprint()
            == replace(base, engine="sharded", shards=4).fingerprint()
        )

    def test_zero_lookahead_model_rejected(self):
        class Zero(UniformLatency):
            def min_remote_latency(self):
                return 0.0

            def min_any_latency(self):
                return 0.0

        cfg = _config(latency_model=Zero())
        with pytest.raises(ConfigurationError, match="lookahead"):
            ShardedCluster(replace(cfg, engine="sharded", shards=2))


class TestDifferentialMatrix:
    """The core bit-identity guarantee across the strategy registries."""

    @pytest.mark.parametrize("selector", SELECTORS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_selector_policy_matrix(self, selector, policy):
        assert_identical(
            _config(selector=selector, steal_policy=policy), shards=2
        )

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_shard_counts(self, shards):
        assert_identical(_config(), shards=shards)

    @pytest.mark.parametrize("alloc", ["1/N", "8RR", "8G", "4G", "1/N@x4"])
    def test_allocations_aligned_and_not(self, alloc):
        assert_identical(_config(allocation=alloc), shards=4)

    def test_lifelines(self):
        assert_identical(_config(lifelines=2), shards=4)

    def test_clock_skew_and_activity_trace(self):
        assert_identical(
            _config(clock_skew_std=1e-7, trace=True), shards=4
        )

    def test_uniform_latency_model(self):
        assert_identical(
            _config(latency_model=UniformLatency(5e-6)), shards=4
        )

    def test_odd_rank_count(self):
        assert_identical(_config(nranks=13), shards=4)

    def test_single_rank(self):
        assert_identical(_config(nranks=1), shards=1)


PROTOCOL_CASES = [
    dict(protocol="forward", forward_ttl=3),
    dict(regions=4),
    dict(
        protocol="forward",
        regions=4,
        lifelines=2,
        lifeline_graph="ring",
    ),
    dict(lifelines=2, lifeline_graph="random"),
    dict(lifelines=3, lifeline_graph="regtree", regions=4),
]

_PROTOCOL_IDS = [
    "forward3", "regions4", "fwd-reg-ring", "ll-random", "ll-regtree"
]


class TestProtocolDifferential:
    """The protocol extensions ride the same bit-identity contract:
    forwards traverse the shard codec, region draws and lifeline
    graphs are rank-local state, so every engine must produce the
    same bytes."""

    @pytest.mark.parametrize("case", PROTOCOL_CASES, ids=_PROTOCOL_IDS)
    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_shard_counts(self, case, shards):
        assert_identical(_config(**case), shards=shards)

    @pytest.mark.parametrize(
        "case", PROTOCOL_CASES[:3], ids=_PROTOCOL_IDS[:3]
    )
    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_multiprocess_transports(self, case, transport):
        assert_identical(
            _config(**case), shards=4, workers=2, transport=transport
        )

    def test_forwarding_composes_with_adaptive_selector(self):
        assert_identical(
            _config(
                selector="adapt-eps[0.2]",
                steal_policy="adaptive[2]",
                protocol="forward",
                regions=4,
            ),
            shards=4,
        )

    def test_forwarding_non_aligned_allocation(self):
        assert_identical(
            _config(allocation="8RR", protocol="forward", regions=4),
            shards=4,
        )

    def test_forwarding_odd_rank_count(self):
        assert_identical(
            _config(nranks=13, protocol="forward", forward_ttl=3, regions=3),
            shards=4,
        )

    def test_forwarding_with_codec_off(self):
        # StealForward has both a packed encoding and the pickle
        # escape; the run must not care which carried it.
        with engine_flags(WIRE_CODEC=False):
            assert_identical(
                _config(protocol="forward", regions=4, lifelines=2),
                shards=4,
                workers=2,
                transport="shm",
            )


class TestAdaptiveDifferential:
    """Feedback-driven selectors must see the *same* notify stream in
    both engines: any divergence in adaptive state shows up here as a
    victim-sequence (hence trace/counter) mismatch."""

    @pytest.mark.parametrize("selector", ADAPTIVE_SELECTORS)
    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_shard_counts(self, selector, shards):
        assert_identical(
            _config(selector=selector, steal_policy="adaptive[2]"),
            shards=shards,
        )

    @pytest.mark.parametrize("selector", ADAPTIVE_SELECTORS)
    def test_multiprocess(self, selector):
        assert_identical(
            _config(selector=selector, steal_policy="adaptive[2]"),
            shards=4,
            workers=2,
        )

    def test_adaptive_with_lifelines(self):
        # Lifeline pushes notify(success=True) for victims the selector
        # never drew; the adaptive state must digest them identically.
        assert_identical(
            _config(
                selector="adapt-backoff[2]",
                steal_policy="adaptive[2]",
                lifelines=2,
            ),
            shards=4,
        )

    def test_adaptive_policy_non_aligned_allocation(self):
        assert_identical(
            _config(selector="adapt-eps[0.2]", steal_policy="adaptive[2]",
                    allocation="8RR"),
            shards=4,
        )


class TestMultiProcess:
    """Same guarantee when shards are distributed over OS processes."""

    @pytest.mark.parametrize("shards,workers", [(2, 2), (4, 2), (4, 4)])
    def test_multiprocess_matches_sequential(self, shards, workers):
        assert_identical(_config(), shards=shards, workers=workers)

    def test_multiprocess_with_traces(self):
        assert_identical(
            _config(trace=True, clock_skew_std=1e-7),
            shards=4,
            workers=2,
        )

    def test_multiprocess_lifelines(self):
        assert_identical(_config(lifelines=2), shards=4, workers=2)


class TestTransportMatrix:
    """Transport x window-batching combinations, all bit-identical.

    The optimisation flags are plain module globals; under the fork
    start method children inherit the patched values, so each case
    exercises the full coordinator/worker protocol under that flag
    combination, not just the in-process driver.
    """

    @pytest.mark.parametrize("burst", [True, False])
    @pytest.mark.parametrize("extension", [True, False])
    def test_inprocess_batching_flags(self, burst, extension):
        with engine_flags(USE_BURST=burst, USE_WINDOW_EXTENSION=extension):
            assert_identical(
                _config(selector="rand", steal_policy="half"), shards=4
            )

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    @pytest.mark.parametrize(
        "burst,extension",
        [(True, True), (True, False), (False, True), (False, False)],
    )
    def test_multiprocess_transport_by_batching(
        self, transport, burst, extension
    ):
        with engine_flags(USE_BURST=burst, USE_WINDOW_EXTENSION=extension):
            assert_identical(
                _config(), shards=4, workers=2, transport=transport
            )

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_codec_off_is_identical(self, transport):
        # Pickle fallback vs packed codec: same bytes out of the run.
        with engine_flags(WIRE_CODEC=False):
            assert_identical(
                _config(lifelines=2), shards=4, workers=2,
                transport=transport,
            )

    def test_overlap_off_is_identical(self):
        with engine_flags(USE_OVERLAP=False):
            assert_identical(_config(), shards=4, workers=2)

    def test_shm_with_traces_and_adaptive(self):
        assert_identical(
            _config(
                selector="adapt-eps[0.2]",
                steal_policy="adaptive[2]",
                trace=True,
            ),
            shards=4,
            workers=4,
            transport="shm",
        )

    def test_invalid_transport_rejected(self):
        with pytest.raises(ConfigurationError):
            _config(shard_transport="carrier-pigeon")


class TestWorkerPoolLifecycle:
    """Process hygiene: auto-sizing, stats, and no leaked children."""

    def test_auto_shard_workers_matches_cpu_count(self):
        assert auto_shard_workers() == max(1, os.cpu_count() or 1)

    def test_zero_workers_resolves_to_auto_capped_by_shards(self):
        cfg = replace(_config(), engine="sharded", shards=2, shard_workers=0)
        cluster = ShardedCluster(cfg)
        assert cluster._nworkers == max(1, min(auto_shard_workers(), 2))

    def test_zero_workers_run_is_identical(self):
        assert_identical(_config(), shards=2, workers=0)

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            _config(shard_workers=-1)

    def test_parallel_stats_populated(self):
        cfg = replace(
            _config(), engine="sharded", shards=4, shard_workers=2
        )
        cluster = ShardedCluster(cfg)
        cluster.run()
        stats = cluster.parallel_stats
        assert stats is not None
        assert stats["workers"] == 2
        assert stats["shards"] == 4
        assert stats["transport"].startswith("pipe")
        assert stats["rounds"] > 0
        assert stats["round_trips"] >= stats["rounds"]
        assert len(stats["worker_busy_s"]) == 2
        assert stats["bytes_sent"] > 0 and stats["bytes_recv"] > 0

    def test_inprocess_run_has_no_parallel_stats(self):
        cfg = replace(_config(), engine="sharded", shards=4)
        cluster = ShardedCluster(cfg)
        cluster.run()
        assert cluster.parallel_stats is None

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_raising_child_leaves_no_live_process(self, transport):
        # A child that blows its event budget sends an error reply and
        # the coordinator re-raises; the pool must still tear every
        # process down (the old join() ignored its timeout and could
        # strand children forever).
        cfg = replace(
            _config(),
            engine="sharded",
            shards=4,
            shard_workers=2,
            shard_transport=transport,
        )
        before = {p.pid for p in multiprocessing.active_children()}
        t0 = time.monotonic()
        with pytest.raises(SimulationError, match="exceeded"):
            ShardedCluster(cfg, max_events=50).run()
        # The healthy child sees EOF as soon as the coordinator closes
        # its pipe end (no inherited copy keeps it open), so the run
        # raises without waiting out the shutdown join timeout.
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"failed run took {elapsed:.2f}s to raise"
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            leaked = [
                p
                for p in multiprocessing.active_children()
                if p.pid not in before
            ]
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked, f"stranded children: {leaked}"

    def test_healthy_run_leaves_no_live_process(self):
        before = {p.pid for p in multiprocessing.active_children()}
        assert_identical(_config(), shards=4, workers=4)
        leaked = [
            p
            for p in multiprocessing.active_children()
            if p.pid not in before
        ]
        assert not leaked


class TestRunnerRouting:
    def test_run_uts_routes_sharded_engine(self):
        seq = run_uts(tree=T3XS, nranks=16, event_trace=True)
        sh = run_uts(
            tree=T3XS,
            nranks=16,
            event_trace=True,
            engine="sharded",
            shards=4,
        )
        assert seq.to_dict() == sh.to_dict()
        assert seq.events.canonical_bytes() == sh.events.canonical_bytes()

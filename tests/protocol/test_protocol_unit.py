"""Unit tests of the StealProtocol state machine via a fake transport.

The protocol object is exercised through the worker (the production
wiring) but with a scripted transport, so each branch — forwarding
relays, terminal denies, visited-set pruning, region-first draws —
is pinned without running a full simulation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.steal_policy import StealOne
from repro.core.victim import UniformRandomSelector
from repro.lifeline.worker import LifelineWorker
from repro.protocol.core import ProtocolPlan, StealProtocol
from repro.protocol.messages import (
    StealForward,
    StealRequest,
    StealResponse,
)
from repro.protocol.regions import RegionMap
from repro.sim.worker import Worker, WorkerStatus
from repro.uts.params import TreeParams
from repro.uts.tree import TreeGenerator

TREE = TreeParams(
    name="sp", tree_type="binomial", root_seed=3, b0=30, m=2, q=0.4
)


class FakeTransport:
    def __init__(self):
        self.sent = []
        self.execs = []
        self.idles = []
        self.work_sends = []

    def send(self, src, dst, payload, when):
        self.sent.append((src, dst, payload, when))

    def schedule_exec(self, rank, when):
        self.execs.append((rank, when))

    def rank_became_idle(self, rank, when):
        self.idles.append((rank, when))

    def work_sent(self, rank):
        self.work_sends.append(rank)

    def local_time(self, rank, true_time):
        return true_time


def make_worker(rank=1, nranks=8, plan=None, policy=None):
    t = FakeTransport()
    w = Worker(
        rank=rank,
        nranks=nranks,
        generator=TreeGenerator(TREE),
        selector=UniformRandomSelector().make(rank, nranks, seed=0),
        policy=policy if policy is not None else StealOne(),
        transport=t,
        chunk_size=5,
        poll_interval=4,
        per_node_time=1e-6,
        steal_service_time=1e-6,
        plan=plan,
    )
    return w, t


def _of_type(sent, cls):
    return [m for m in sent if isinstance(m[2], cls)]


FWD_PLAN = ProtocolPlan(forward=True, forward_ttl=2)


class TestWorkerSurface:
    """The tentpole's structural guarantee: the execution core holds
    no steal-protocol message handling of its own."""

    def test_worker_has_no_protocol_handlers(self):
        for name in (
            "_on_response",
            "_send_steal_request",
            "_serve_pending",
            "_relay_or_deny",
            "_steal_failed",
            "_quiesce",
            "_disarm",
        ):
            assert name not in vars(Worker), name
            assert name not in vars(LifelineWorker), name

    def test_lifeline_worker_is_a_plan_shim(self):
        # The subclass adds configuration and read-only views, never
        # behaviour: no message or serve overrides remain.
        for name in ("on_message", "on_exec", "start", "run_quanta"):
            assert name not in vars(LifelineWorker), name

    def test_protocol_owns_the_lifecycle(self):
        for name in (
            "on_idle",
            "on_message",
            "serve_pending",
            "_relay_or_deny",
            "_forward_target",
            "_draw_victim",
        ):
            assert name in vars(StealProtocol), name

    def test_pending_is_shared_in_place(self):
        w, _ = make_worker()
        assert w.pending is w.protocol.pending


class TestBaselineDeny:
    def test_idle_rank_denies_without_forwarding(self):
        w, t = make_worker()  # default plan: no forwarding
        w.start(0.0)
        w.on_message(1.0, StealRequest(thief=5))
        denies = _of_type(t.sent, StealResponse)
        assert len(denies) == 1
        _, dst, resp, _ = denies[0]
        assert dst == 5 and not resp.has_work
        assert w.requests_denied == 1
        assert w.requests_forwarded == 0

    def test_running_rank_queues_request(self):
        w, _ = make_worker()
        w.status = WorkerStatus.RUNNING
        w.on_message(1.0, StealRequest(thief=5))
        assert len(w.pending) == 1


class TestForwarding:
    def test_idle_rank_relays_instead_of_denying(self):
        w, t = make_worker(plan=FWD_PLAN)
        w.start(0.0)
        w.on_message(1.0, StealRequest(thief=5))
        fwds = _of_type(t.sent, StealForward)
        assert len(fwds) == 1
        src, dst, msg, _ = fwds[0]
        assert src == 1
        assert msg.thief == 5
        assert msg.ttl == FWD_PLAN.forward_ttl - 1
        assert dst not in (1, 5)  # never back to thief or self
        assert msg.visited == (5, 1, dst)
        assert w.requests_forwarded == 1
        assert w.requests_denied == 0
        assert _of_type(t.sent, StealResponse) == []

    def test_exhausted_ttl_denies_to_originator(self):
        w, t = make_worker(plan=FWD_PLAN)
        w.start(0.0)
        w.on_message(1.0, StealForward(thief=5, escalated=False, ttl=0,
                                       visited=(5, 3, 1)))
        assert _of_type(t.sent, StealForward) == []
        denies = _of_type(t.sent, StealResponse)
        assert len(denies) == 1
        assert denies[0][1] == 5  # terminal deny goes to the originator
        assert w.requests_denied == 1

    def test_fully_visited_chain_denies(self):
        w, t = make_worker(nranks=4, plan=FWD_PLAN)
        w.start(0.0)
        w.on_message(
            1.0,
            StealForward(thief=0, escalated=False, ttl=5,
                         visited=(0, 1, 2, 3)),
        )
        assert _of_type(t.sent, StealForward) == []
        assert [m[1] for m in _of_type(t.sent, StealResponse)] == [0]

    def test_relay_skips_visited_ranks(self):
        w, t = make_worker(nranks=4, plan=FWD_PLAN)
        w.start(0.0)
        w.on_message(
            1.0,
            StealForward(thief=0, escalated=False, ttl=5, visited=(0, 2, 1)),
        )
        fwds = _of_type(t.sent, StealForward)
        assert len(fwds) == 1
        assert fwds[0][1] == 3  # the only unvisited rank

    def test_served_forward_flows_to_originator(self):
        w, t = make_worker(rank=0, plan=FWD_PLAN)
        w.stack.push_batch(
            np.arange(25, dtype=np.uint64), np.full(25, 2, dtype=np.int32)
        )
        w.status = WorkerStatus.RUNNING
        w.on_message(
            1.0,
            StealForward(thief=5, escalated=False, ttl=1, visited=(5, 3, 0)),
        )
        w.on_exec(2.0)
        serves = [
            m for m in _of_type(t.sent, StealResponse) if m[2].has_work
        ]
        assert len(serves) == 1
        assert serves[0][1] == 5  # straight to the thief, not hop 3
        assert serves[0][2].victim == 0
        assert w.forwards_served == 1
        assert w.requests_served == 1
        assert t.work_sends == [0]

    def test_escalation_flag_survives_the_relay(self):
        w, t = make_worker(plan=FWD_PLAN)
        w.start(0.0)
        w.on_message(
            1.0, StealForward(thief=5, escalated=True, ttl=2, visited=(5, 3))
        )
        fwds = _of_type(t.sent, StealForward)
        assert len(fwds) == 1 and fwds[0][2].escalated

    def test_forward_off_plan_never_relays(self):
        w, t = make_worker(plan=ProtocolPlan(forward=False))
        w.start(0.0)
        w.on_message(1.0, StealRequest(thief=5))
        assert _of_type(t.sent, StealForward) == []
        assert w.requests_denied == 1


REGION_PLAN = ProtocolPlan(
    regions=RegionMap([0, 4, 8]), region_attempts=2
)


class TestRegions:
    def test_first_draws_stay_in_region(self):
        w, t = make_worker(rank=1, plan=REGION_PLAN)
        w.start(0.0)  # first request of the session
        reqs = _of_type(t.sent, StealRequest)
        assert len(reqs) == 1
        assert reqs[0][1] in {0, 2, 3}
        # A failed reply triggers the second (still intra-region) draw.
        w.on_message(1.0, StealResponse(victim=reqs[0][1], chunks=None))
        reqs = _of_type(t.sent, StealRequest)
        assert len(reqs) == 2
        assert reqs[1][1] in {0, 2, 3}

    def test_draws_escalate_after_budget(self):
        w, t = make_worker(rank=1, plan=REGION_PLAN)
        w.start(0.0)
        # Burn the intra-region budget, then many more draws: at least
        # one must leave the region (uniform over 7 ranks, 4 outside).
        for i in range(40):
            reqs = _of_type(t.sent, StealRequest)
            w.on_message(float(i + 1),
                         StealResponse(victim=reqs[-1][1], chunks=None))
        targets = {m[1] for m in _of_type(t.sent, StealRequest)[2:]}
        assert targets - {0, 2, 3}, "selector draws never left the region"

    def test_region_first_forward_targets(self):
        plan = ProtocolPlan(
            forward=True, forward_ttl=2, regions=RegionMap([0, 4, 8])
        )
        w, t = make_worker(rank=1, plan=plan)
        w.start(0.0)
        w.on_message(1.0, StealRequest(thief=6))
        fwds = _of_type(t.sent, StealForward)
        assert len(fwds) == 1
        assert fwds[0][1] in {0, 2, 3}  # relay prefers region peers

    def test_session_reset_restores_region_budget(self):
        w, t = make_worker(rank=1, plan=REGION_PLAN)
        w.start(0.0)
        assert w.protocol._session_attempts == 1
        reqs = _of_type(t.sent, StealRequest)
        chunk = _work_chunk()
        w.on_message(1.0, StealResponse(victim=reqs[0][1], chunks=[chunk]))
        assert w.status is WorkerStatus.RUNNING
        assert w.protocol._session_attempts == 0


def _work_chunk():
    from repro.uts.stack import Chunk

    c = Chunk(5)
    c.push(
        np.arange(5, dtype=np.uint64), np.full(5, 2, dtype=np.int32)
    )
    return c


class TestCounters:
    def test_worker_counters_are_protocol_views(self):
        w, _ = make_worker(plan=FWD_PLAN)
        w.protocol.requests_forwarded = 7
        w.protocol.forwards_served = 3
        assert w.requests_forwarded == 7
        assert w.forwards_served == 3

    def test_plain_serve_flag(self):
        w, _ = make_worker(plan=FWD_PLAN)
        assert w._plain_serve  # forwarding adds no spontaneous sends
        w2, _ = make_worker(plan=ProtocolPlan(lifeline_count=2))
        assert not w2._plain_serve  # lifeline pushes are spontaneous


class TestLifelineRaces:
    """A stale lifeline push can wake a thief while its real steal
    request is still in flight; the eventual deny then lands while
    RUNNING.  With lifelines that deny is tolerated (the chain keeps
    hunting, as the pre-refactor LifelineWorker did); without them a
    non-WAITING response stays a protocol violation."""

    def test_deny_while_running_is_tolerated_with_lifelines(self):
        w, t = make_worker(plan=ProtocolPlan(lifeline_count=2))
        w.status = WorkerStatus.RUNNING
        w.protocol.on_message(1.0, StealResponse(victim=3, chunks=None))
        assert w.failed_steals == 1
        assert len(_of_type(t.sent, StealRequest)) == 1  # chain resent

    def test_deny_while_running_raises_without_lifelines(self):
        from repro.errors import SimulationError

        w, _ = make_worker(plan=FWD_PLAN)
        w.status = WorkerStatus.RUNNING
        with pytest.raises(SimulationError, match="while RUNNING"):
            w.protocol.on_message(1.0, StealResponse(victim=3, chunks=None))


class TestMessageErrors:
    """The response branch is tested first; every other tag, and
    anything without one, still ends in the unexpected-message error."""

    class _Tagless:
        pass

    class _UnknownTag:
        tag = 99

    @pytest.mark.parametrize(
        "status", [WorkerStatus.RUNNING, WorkerStatus.WAITING], ids=["running", "waiting"]
    )
    @pytest.mark.parametrize(
        "msg", [_Tagless(), _UnknownTag()], ids=["tagless", "unknown-tag"]
    )
    def test_tagless_or_unknown_message_raises(self, status, msg):
        from repro.errors import SimulationError

        w, _ = make_worker()
        w.status = status
        with pytest.raises(SimulationError, match="unexpected message"):
            w.protocol.on_message(1.0, msg)

    def test_lifeline_message_without_lifelines_raises(self):
        from repro.errors import SimulationError
        from repro.protocol.messages import LifelineRegister

        w, _ = make_worker()
        w.start(0.0)
        with pytest.raises(SimulationError, match="unexpected message"):
            w.protocol.on_message(1.0, LifelineRegister(thief=5))

    def test_unknown_message_after_finish_is_dropped(self):
        w, t = make_worker()
        w.status = WorkerStatus.DONE
        w.protocol.on_message(1.0, self._UnknownTag())
        assert t.sent == []


class TestReusedMessages:
    """Each rank sends one deny object and two request objects (plain,
    escalated) by reference; they must never be mutated, and the
    cross-shard codec must decode them into equal, separate objects."""

    @staticmethod
    def _adaptive_worker():
        from repro.select.adaptive import AdaptiveStealPolicy

        return make_worker(policy=AdaptiveStealPolicy(escalate_after=2))

    def test_requests_and_denies_are_shared_and_unmutated(self):
        w, t = self._adaptive_worker()
        w.start(0.0)  # rank 1 starts idle: first request
        for k in range(4):
            w.on_message(1.0 + k, StealResponse(victim=3, chunks=None))
        requests = [m[2] for m in _of_type(t.sent, StealRequest)]
        assert [r.escalated for r in requests] == [
            False, False, True, True, True
        ]
        plain = {id(r) for r in requests if not r.escalated}
        escalated = {id(r) for r in requests if r.escalated}
        assert len(plain) == 1 and len(escalated) == 1
        assert all(r.thief == 1 for r in requests)

        victim, vt = make_worker(rank=2)
        victim.start(0.0)  # idle: denies at once
        for thief in (4, 5, 4):
            victim.on_message(2.0, StealRequest(thief=thief))
        denies = [m[2] for m in _of_type(vt.sent, StealResponse)]
        assert [m[1] for m in _of_type(vt.sent, StealResponse)] == [4, 5, 4]
        assert len({id(d) for d in denies}) == 1
        assert denies[0].victim == 2 and denies[0].chunks is None

    def test_codec_round_trip_is_equal_and_leaves_originals_intact(self):
        from repro.sim.engine import EVT_MSG
        from repro.sim.shardcodec import decode_entries, encode_entries

        w, t = self._adaptive_worker()
        w.start(0.0)
        for k in range(3):
            w.on_message(1.0 + k, StealResponse(victim=3, chunks=None))
        victim, vt = make_worker(rank=2)
        victim.start(0.0)
        victim.on_message(2.0, StealRequest(thief=6))
        victim.on_message(2.5, StealRequest(thief=7))

        sent = t.sent + vt.sent
        entries = [
            (when, src, seq, EVT_MSG, dst, payload)
            for seq, (src, dst, payload, when) in enumerate(sent)
        ]
        before = [(type(p), dict((s, getattr(p, s)) for s in p.__slots__))
                  for *_, p in entries]
        decoded = decode_entries(encode_entries(entries))
        assert decoded == entries
        for (*_, original), (*_, copy) in zip(entries, decoded):
            assert copy is not original
        after = [(type(p), dict((s, getattr(p, s)) for s in p.__slots__))
                 for *_, p in entries]
        assert after == before
        # Decoding twice yields independent objects as well.
        again = decode_entries(encode_entries(entries))
        assert all(a[5] is not b[5] for a, b in zip(again, decoded))

"""Cross-commit golden digests of whole runs.

The differential suite proves the two engines agree *within one
build*; nothing there notices a change that moves both the same way.
These digests were generated once and committed: a refactor that keeps
behaviour must reproduce them byte for byte.  Each case pins SHA-256 of
``RunResult.to_json()`` (counters, per-rank arrays, sessions and the
activity trace) and of the canonical event-trace bytes, and runs on
every engine layout listed for it — all of which must agree.

The cases reach each branch of the steal-message path: plain
request/deny/serve cycles (``tofu_half``), TTL forwarding with locality
regions, lifeline pushes including a stale deny landing on a RUNNING
thief (tiny chunks make the race frequent), escalated requests of the
adaptive policy, and the two-process driver over pipes.

A digest may change only with a deliberate behaviour change; re-pin by
running this module as a script (``PYTHONPATH=src python
tests/sim/test_golden_digests.py``) and record why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import WorkStealingConfig
from repro.uts.params import T3XS
from repro.ws import run_uts

_BASE = dict(
    tree=T3XS,
    nranks=64,
    selector="tofu",
    steal_policy="half",
    trace=True,
    event_trace=True,
)

_SEQUENTIAL = dict(engine="sequential")
_SHARDED = dict(engine="sharded", shards=2)
_TWO_PROCESS = dict(
    engine="sharded", shards=2, shard_workers=2, shard_transport="pipe"
)

#: name -> (config overrides, engine layouts that must all reproduce it)
CASES: dict[str, tuple[dict, tuple[dict, ...]]] = {
    "tofu_half": ({}, (_SEQUENTIAL, _SHARDED, _TWO_PROCESS)),
    "forward2_regions": (
        dict(protocol="forward", forward_ttl=2, regions=4),
        (_SEQUENTIAL, _SHARDED),
    ),
    "lifelines_hypercube": (
        dict(
            lifelines=4,
            lifeline_threshold=2,
            lifeline_graph="hypercube",
            chunk_size=2,
            poll_interval=2,
            seed=2,
        ),
        (_SEQUENTIAL, _SHARDED),
    ),
    "adaptive3": (
        dict(steal_policy="adaptive[3]"),
        (_SEQUENTIAL, _SHARDED),
    ),
}

#: name -> (sha256 of RunResult.to_json(), sha256 of event-trace bytes)
GOLDEN: dict[str, tuple[str, str]] = {
    "tofu_half": (
        "4e366abc5f9e3db71aaabd2ff50b9a1d4e673a4aec3f06afdf644835c83812a7",
        "13f5aad3d618ca92d5359fdd52ed3b6bae46664bf08370e576a74d93b35a05ea",
    ),
    "forward2_regions": (
        "62a1e1060fc3402612e1fe93bd6b88b924a20cbea786c078e793a6aa46b92e55",
        "bf76ca98c46ae1b1a8a322a0e901d5b2d8cbd3691a86f515da258d70d2b35ca8",
    ),
    "lifelines_hypercube": (
        "9d1b35cbfe604a71c58cdd9c46844d1f5fc3f700ff5c1ee9b9f427a07c1d7c06",
        "41fa2e980a9d2d415c0985ee86811ca8bda31ec861c41f372639aaad53c3d74e",
    ),
    "adaptive3": (
        "a24e67cfcfbfba0a1e7395ce53e730560ef38bd7fb66245f17a37b48aae2ac88",
        "f00b061a0ac10258e476d3fe7887b355f960ad9a70d0cfc62d15d31339513299",
    ),
}


def _config(name: str, layout: dict) -> WorkStealingConfig:
    overrides, _layouts = CASES[name]
    return WorkStealingConfig(**{**_BASE, **overrides, **layout})


def digests(cfg: WorkStealingConfig) -> tuple[str, str]:
    result = run_uts(cfg)
    return (
        hashlib.sha256(result.to_json().encode()).hexdigest(),
        hashlib.sha256(result.events.canonical_bytes()).hexdigest(),
    )


_PARAMS = [
    pytest.param(name, layout, id=f"{name}-{'-'.join(map(str, layout.values()))}")
    for name, (_overrides, layouts) in CASES.items()
    for layout in layouts
]


@pytest.mark.parametrize("name,layout", _PARAMS)
def test_digest_matches_golden(name, layout):
    assert digests(_config(name, layout)) == GOLDEN[name]


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)


if __name__ == "__main__":
    # Print the GOLDEN table for the current build (first layout of
    # each case; the tests check the others agree).
    print("GOLDEN: dict[str, tuple[str, str]] = {")
    for name, (_overrides, layouts) in CASES.items():
        result_digest, events_digest = digests(_config(name, layouts[0]))
        print(f'    "{name}": (\n        "{result_digest}",')
        print(f'        "{events_digest}",\n    ),')
    print("}")

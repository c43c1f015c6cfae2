"""Cross-transport chaos scenarios: one seeded plan, two transports.

The acceptance property of the unified fault plane: replaying the *same*
seeded :class:`~repro.faults.FaultPlan` over the in-process simulator and
over a 2-node wire loopback deployment must leave every party with the
same evidence multiset and the same replica state.  With the proposer
alone on its wire node, the wire node's admission sequence is identical
to the simulator's global sequence, so the same seed produces the same
fault pattern on both transports and the comparison can be exact -- not
merely "both converged somewhere".

Statistics are deliberately *not* compared under faults: retry attempts
against a partitioned peer depend on per-link bookkeeping that the two
deployments spread differently across nodes.  Evidence and state are the
paper's non-repudiation currency; those must match token for token.

This module is imported explicitly (``repro.faults.chaos``), not
re-exported by the package: it pulls in the full core stack, which the
injector-level modules must not.

Run from the command line for a quick reproduction::

    PYTHONPATH=src python -m repro.faults.chaos --seed 7
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.clock import SimulatedClock
from repro.core.config import ObservabilityConfig, PeeringConfig
from repro.core.sharing import AUDIT_CATEGORY_SHARING, set_run_fault_injector
from repro.core.trust_domain import TrustDomain
from repro.faults.failpoints import VERB_CLOSE
from repro.faults.plan import FaultPlan, FaultRule
from repro.observability import runtime as _obs_runtime
from repro.observability.tracing import render_tree
from repro.transport.wire import WireTransport
from repro.transport.wire.network import FAILPOINT_CLIENT_BEFORE_SEND

__all__ = [
    "ChaosReport",
    "SelfHealingReport",
    "run_cross_transport_scenario",
    "run_self_healing_scenario",
    "standard_chaos_plan",
    "write_failure_artifact",
    "write_self_healing_artifact",
    "write_trace_artifact",
]

#: Object id shared objects are coordinated under in every scenario.
OBJECT_ID = "chaos-doc"
#: The self-healing victim's crashed proposal targets this second object:
#: on ``OBJECT_ID`` it still holds the partitioned run's reservation, and a
#: reserved object refuses its own proposals before anything is journaled.
SIDE_OBJECT_ID = "chaos-side"


def _rejected_outcomes(organisations, settled: bool = True) -> List[str]:
    """``party:event:run`` per rejected outcome or expired reservation, and
    -- on ``settled`` replicas -- per reservation still held or outcome
    re-delivery still pending.

    Every party here is honest and stays up, so none of it may happen:
    catch-up would heal the replica later and hide an over-strict agreement
    proof (or a too-short orphan timeout) from every other check, and a
    healed replica holds no run and owes no peer an outcome.
    """
    problems = [
        f"{organisation.uri}:{record.details['event']}:{record.subject}"
        for organisation in organisations
        for record in organisation.audit_records(category=AUDIT_CATEGORY_SHARING)
        if record.details.get("event") in ("outcome-rejected", "orphan-run-expired")
    ]
    for organisation in organisations if settled else ():
        controller = organisation.controller
        problems += [f"{organisation.uri}:reservation-held:{run_id}"
                     for run_id in controller.held_reservations()]
        problems += [f"{organisation.uri}:redelivery-pending:{run_id}"
                     for run_id in controller.pending_redeliveries()]
    return problems


def standard_chaos_plan(seed: int) -> FaultPlan:
    """The stock chaos mix: drop + duplicate + reorder + a partition window.

    Probabilities and the partition width are chosen so the worst case the
    plan can produce (the 3-message partition window followed by the
    plan's bounded run of consecutive losses) still resolves within the
    default 10-attempt retry budget: chaos exercises the recovery
    machinery, it never manufactures unwinnable runs.
    """
    return FaultPlan(
        rules=(
            FaultRule(fault="drop", probability=0.2),
            FaultRule(fault="duplicate", probability=0.3),
            FaultRule(fault="reorder", probability=0.5),
            FaultRule(fault="partition", after_message=5, until_message=8),
        ),
        seed=f"chaos-{seed}".encode("utf-8"),
        name=f"standard-chaos-{seed}",
    )


@dataclass
class ChaosReport:
    """Outcome of one cross-transport scenario, ready for comparison."""

    plan: FaultPlan
    parties: int
    split: int
    values: List[int]
    #: Per-transport summaries: outcome flags, evidence multisets, states.
    simulated: Dict[str, Any] = field(default_factory=dict)
    wired: Dict[str, Any] = field(default_factory=dict)

    def mismatches(self) -> List[str]:
        """Human-readable divergences between the two transports."""
        problems: List[str] = []
        for key in ("outcomes", "evidence", "states"):
            if self.simulated.get(key) != self.wired.get(key):
                problems.append(
                    f"{key} diverged:\n"
                    f"  simulated: {self.simulated.get(key)!r}\n"
                    f"  wired:     {self.wired.get(key)!r}"
                )
        for leg, summary in (("simulated", self.simulated), ("wired", self.wired)):
            if summary.get("rejected_outcomes"):
                problems.append(f"{leg} rejections: {summary['rejected_outcomes']!r}")
        return problems

    @property
    def converged(self) -> bool:
        return not self.mismatches()


def _uris(parties: int) -> List[str]:
    return [f"urn:org:chaos{i}" for i in range(parties)]


def _evidence_summary(organisation, run_ids) -> Dict[str, int]:
    counts: Counter = Counter()
    for run_id in run_ids:
        for record in organisation.evidence_store.evidence_for_run(run_id):
            counts[f"{record.token_type}/{record.role}"] += 1
    return dict(sorted(counts.items()))


def _drive(proposer, values):
    """Propose each value in turn; chaos may legitimately defeat a run.

    A not-agreed outcome is part of the record, not a scenario failure:
    the property under test is that *both* transports resolve each run
    the same way, agreed or not.
    """
    outcomes = []
    run_ids = []
    for value in values:
        outcome = proposer.propose_update(OBJECT_ID, {"v": value})
        outcomes.append((outcome.agreed, outcome.new_version))
        run_ids.append(outcome.run_id)
    return outcomes, run_ids


def _summarize(outcomes, run_ids, uris, org_for) -> Dict[str, Any]:
    return {
        "outcomes": outcomes,
        "rejected_outcomes": _rejected_outcomes([org_for(uri) for uri in uris]),
        "evidence": {
            uri: _evidence_summary(org_for(uri), run_ids) for uri in uris
        },
        "states": {
            uri: (
                org_for(uri).shared_state(OBJECT_ID),
                org_for(uri).shared_version(OBJECT_ID),
            )
            for uri in uris
        },
    }


@contextlib.contextmanager
def _storage_profile(kind: Optional[str]) -> Iterator[Optional[str]]:
    """Provision a throwaway ``storage=`` profile of ``kind`` for one run.

    ``None`` and ``"memory"`` pass through; ``"file"`` and ``"sqlite"``
    get a fresh temporary location, removed afterwards, so chaos runs
    over persistent backends never see each other's state.
    """
    if kind is None or kind == "memory":
        yield kind
        return
    if kind not in ("file", "sqlite"):
        raise ValueError(
            f"chaos storage kind must be memory, file or sqlite, got {kind!r}"
        )
    directory = tempfile.mkdtemp(prefix="chaos-storage-")
    try:
        if kind == "file":
            yield f"file:{directory}"
        else:
            yield f"sqlite:{os.path.join(directory, 'chaos.db')}"
    finally:
        shutil.rmtree(directory, ignore_errors=True)


@contextlib.contextmanager
def _leg_tracing(capture: bool):
    """Record one leg's span trees without disturbing the host's plane.

    Yields a renderer mapping run ids to their ASCII span trees (empty when
    ``capture`` is off).  A fresh tracing-only plane is enabled for the leg
    and whatever observability state the process had before is suspended
    around it, so each leg's trace is self-contained.  Capture cannot
    perturb convergence: trace context rides out-of-band and injector draws
    never touch the observability plane.
    """
    if not capture:
        yield lambda run_ids: {}
        return
    previous = _obs_runtime.suspend()
    _obs_runtime.enable(ObservabilityConfig(metrics=False))
    collector = _obs_runtime.STATE.tracing
    try:
        def render(run_ids):
            spans = collector.spans()
            return {
                run_id: render_tree(spans, run_id) for run_id in run_ids
            }
        yield render
    finally:
        _obs_runtime.disable()
        _obs_runtime.resume(previous)


def _simulated_run(
    plan: FaultPlan,
    parties: int,
    values: List[int],
    storage: Optional[str] = None,
    capture_traces: bool = False,
):
    uris = _uris(parties)
    with _storage_profile(storage) as profile, _leg_tracing(
        capture_traces
    ) as render:
        domain = TrustDomain.create(
            uris,
            scheme="hmac",
            clock=SimulatedClock(),
            fault_plan=plan,
            storage=profile,
        )
        domain.share_object(OBJECT_ID, {"v": 0})
        outcomes, run_ids = _drive(domain.organisation(uris[0]), values)
        summary = _summarize(
            outcomes, run_ids, uris, lambda uri: domain.organisation(uri)
        )
        if capture_traces:
            summary["traces"] = render(run_ids)
        return summary


def _wire_run(
    plan: FaultPlan,
    parties: int,
    split: int,
    values: List[int],
    storage: Optional[str] = None,
    peering_cap: Optional[int] = None,
    capture_traces: bool = False,
):
    uris = _uris(parties)
    local_a, local_b = uris[:split], uris[split:]
    with _storage_profile(storage) as profile, _leg_tracing(
        capture_traces
    ) as render, WireTransport(
        local_parties=local_a,
        await_remote_credentials=False,
        clock=SimulatedClock(),
    ) as ta, WireTransport(
        local_parties=local_b,
        await_remote_credentials=False,
        clock=SimulatedClock(),
    ) as tb:
        # The plan installs on both nodes; with split=1 only the proposer's
        # node originates accounted traffic, so only its injector draws --
        # which is exactly what makes the draw sequence match the simulator.
        # Both nodes share one storage profile: under ``sqlite`` that is
        # one embedded-KV file serving every party of both processes.
        peering = (
            PeeringConfig(max_live_channels=peering_cap)
            if peering_cap is not None
            else None
        )
        da = TrustDomain.create(
            uris,
            transport=ta,
            scheme="hmac",
            fault_plan=plan,
            storage=profile,
            peering=peering,
        )
        db = TrustDomain.create(
            uris, transport=tb, scheme="hmac", fault_plan=plan, storage=profile
        )
        ta.introduce_to(tb.host, tb.port)
        tb.introduce_to(ta.host, ta.port)
        da.share_object(OBJECT_ID, {"v": 0})
        db.share_object(OBJECT_ID, {"v": 0})
        outcomes, run_ids = _drive(da.organisation(uris[0]), values)

        def org_for(uri):
            return (da if uri in da.organisations else db).organisation(uri)

        summary = _summarize(outcomes, run_ids, uris, org_for)
        if capture_traces:
            summary["traces"] = render(run_ids)
        return summary


def run_cross_transport_scenario(
    plan: FaultPlan,
    parties: int = 3,
    split: int = 1,
    values: Optional[List[int]] = None,
    storage: Optional[str] = None,
    peering_cap: Optional[int] = None,
    capture_traces: bool = False,
) -> ChaosReport:
    """Replay ``plan`` on the simulator and a 2-node wire loopback.

    Returns a :class:`ChaosReport` whose :meth:`~ChaosReport.mismatches`
    is empty exactly when the two transports resolved every run the same
    way and left identical evidence and replica state everywhere.  With
    ``split=1`` (the default) the comparison is exact per-party equality;
    larger splits move responders off the proposer's node, which changes
    the wire draw sequence, so only use them for convergence smoke tests.

    ``storage`` selects a backend kind (``"memory"``/``"file"``/
    ``"sqlite"``) provisioned as a throwaway profile per run, so the
    convergence property is also checked over persistent evidence
    backends -- under ``sqlite`` both wire nodes share one embedded-KV
    file.  ``peering_cap`` enables the lazy channel manager on the
    proposer's wire node with that ``max_live_channels``, making channel
    eviction/recreation churn part of the faulted scenario.

    ``capture_traces`` records each leg under a throwaway tracing plane
    and attaches the rendered per-run span trees to the summaries (under
    ``"traces"``), so a divergence artifact shows *where inside the run*
    the two transports parted ways, not just the end states.
    """
    values = list(values) if values is not None else [1, 2, 3]
    if not 1 <= split < parties:
        raise ValueError("split must keep at least one party on each node")
    report = ChaosReport(
        plan=plan, parties=parties, split=split, values=values
    )
    report.simulated = _simulated_run(
        plan, parties, values, storage=storage, capture_traces=capture_traces
    )
    report.wired = _wire_run(
        plan,
        parties,
        split,
        values,
        storage=storage,
        peering_cap=peering_cap,
        capture_traces=capture_traces,
    )
    return report


def write_failure_artifact(report: ChaosReport, directory: str) -> str:
    """Dump the plan schedule and both summaries for offline replay.

    Returns the artifact path.  The schedule half round-trips through
    :meth:`FaultPlan.from_schedule`, so a CI failure is reproducible from
    the artifact alone.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, f"{report.plan.name or 'fault-plan'}.json"
    )
    payload = {
        "schedule": report.plan.to_schedule(),
        "parties": report.parties,
        "split": report.split,
        "values": report.values,
        "mismatches": report.mismatches(),
        "simulated": report.simulated,
        "wired": report.wired,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    return path


def write_trace_artifact(report: ChaosReport, directory: str) -> str:
    """Dump both legs' rendered span trees next to the replayable plan.

    Requires the report to have been produced with ``capture_traces=True``;
    runs a leg never traced render as ``(no spans recorded)``.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, f"{report.plan.name or 'fault-plan'}-traces.txt"
    )
    sections = []
    for leg, summary in (("simulated", report.simulated), ("wired", report.wired)):
        sections.append(f"== {leg} leg ==")
        traces = summary.get("traces") or {}
        if not traces:
            sections.append("(no spans recorded)")
        for run_id in sorted(traces):
            sections.append(traces[run_id])
        sections.append("")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(sections))
    return path


# -- self-healing replicas: kill + restart + resync ----------------------------------
#
# The second chaos scenario exercises the recovery stack end to end: a
# replica is killed *post-commit* (it already applied agreed state), an
# outcome wave is coordinated while it is dead (so the wave is effectively
# partitioned away from it and queued for re-delivery), and the restarted
# replica must converge with zero manual re-registration -- durable resume
# picks up its recorded version, journal recovery aborts its half-proposed
# run, and restart-time resync pulls the versions it missed.  Both legs run
# the same narrative; the wire leg kills a real subprocess through the
# client-side crash failpoint and restarts it over its persistent store.

SELF_HEALING_RUNS = ("bootstrap", "crashed", "partitioned", "confirm")


class SelfHealingScenarioError(AssertionError):
    """A leg of the self-healing scenario broke one of its invariants."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SelfHealingScenarioError(message)


def _require_honest(organisations, settled: bool = True) -> None:
    rejected = _rejected_outcomes(organisations, settled)
    _require(not rejected, f"honest replicas did not settle cleanly: {rejected!r}")


class _SimulatedCrash(Exception):
    """In-process stand-in for the wire leg's SIGKILL."""


def _self_healing_values(seed: int) -> Dict[str, Dict[str, int]]:
    """The update payloads of one seeded scenario, identical on both legs."""
    return {
        label: {"v": seed * 10 + offset}
        for offset, label in enumerate(SELF_HEALING_RUNS, start=1)
    }


def _self_healing_profile(kind: str, directory: Path, name: str) -> str:
    """A persistent ``storage=`` profile under ``directory``.

    Unlike the cross-transport scenario, ``memory`` is not an option here:
    the victim restarts from nothing but its store, so the store must
    survive the process.
    """
    if kind == "file":
        return f"file:{directory / (name + '-store')}"
    if kind == "sqlite":
        return f"sqlite:{directory / (name + '.db')}"
    raise ValueError(
        "self-healing storage must be file or sqlite "
        f"(a restart needs a persistent store), got {kind!r}"
    )


def _wait_for(
    predicate: Callable[[], bool], timeout: float, message: str
) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise SelfHealingScenarioError(message)


@dataclass
class SelfHealingReport:
    """Outcome of one kill/restart/resync scenario on both transports."""

    seed: int
    storage: str
    simulated: Dict[str, Any] = field(default_factory=dict)
    wired: Dict[str, Any] = field(default_factory=dict)

    def mismatches(self) -> List[str]:
        problems: List[str] = []
        for key in ("versions", "states", "evidence", "recovery"):
            if self.simulated.get(key) != self.wired.get(key):
                problems.append(
                    f"{key} diverged:\n"
                    f"  simulated: {self.simulated.get(key)!r}\n"
                    f"  wired:     {self.wired.get(key)!r}"
                )
        return problems

    @property
    def converged(self) -> bool:
        return not self.mismatches()


def _simulated_self_healing(seed: int, storage_uri: str) -> Dict[str, Any]:
    from repro.crypto.signature import get_scheme

    uris = _uris(3)
    proposer_uri, responder_uri, victim_uri = uris
    values = _self_healing_values(seed)
    # Identities survive the restart (the wire victim persists its keypair
    # the same way): resync records signed before the crash must still
    # verify in the rebuilt domain.
    keypairs = {uri: get_scheme("hmac").generate_keypair() for uri in uris}

    def build_domain() -> TrustDomain:
        return TrustDomain.create(
            uris,
            scheme="hmac",
            clock=SimulatedClock(),
            storage=storage_uri,
            durable_runs=True,
            durable_state=True,
            keypair_factory=lambda uri: keypairs[uri],
        )

    first = build_domain()
    first.share_object(OBJECT_ID, {"v": 0})
    first.share_object(SIDE_OBJECT_ID, {"v": 0})
    bootstrap = first.organisation(proposer_uri).propose_update(
        OBJECT_ID, values["bootstrap"]
    )
    _require(bootstrap.agreed, "bootstrap update did not agree")

    # Partitioned wave: every member decides (agreement is unanimous, so
    # the victim must be reachable through phase 1), then the link to the
    # victim is severed right at the commit barrier -- the victim holds an
    # accepted decision but the outcome never arrives, and the proposer
    # queues a re-delivery for it.
    severed: List[str] = []

    def sever_wave(stage: str, run) -> None:
        if stage == "after-journal-committed" and not severed:
            severed.append(run.run_id)
            first.network.partition.sever(proposer_uri, victim_uri)

    set_run_fault_injector(sever_wave)
    try:
        partitioned = first.organisation(proposer_uri).propose_update(
            OBJECT_ID, values["partitioned"]
        )
    finally:
        set_run_fault_injector(None)
    _require(partitioned.agreed, "partitioned update did not agree")
    _require(
        severed == [partitioned.run_id], "commit-barrier sever never fired"
    )
    _require(
        first.organisation(proposer_uri).controller.pending_redeliveries()
        == [partitioned.run_id],
        "undelivered outcome wave was not queued for re-delivery",
    )

    # The victim dies post-commit (it holds agreed version 1): its own next
    # proposal (on the side object) crashes at the journal barrier -- the
    # in-process analogue of the wire leg's client-send SIGKILL, leaving a
    # half-proposed journal entry behind and nothing at any peer.
    crashed: List[str] = []

    def crash(stage: str, run) -> None:
        if stage == "after-journal-proposed" and not crashed:
            crashed.append(run.run_id)
            raise _SimulatedCrash(stage)

    set_run_fault_injector(crash)
    try:
        with contextlib.suppress(_SimulatedCrash):
            first.organisation(victim_uri).propose_update(
                SIDE_OBJECT_ID, values["crashed"]
            )
    finally:
        set_run_fault_injector(None)
    _require(len(crashed) == 1, "crash injector never fired")
    crashed_run_id = crashed[0]

    # Restart the world from nothing but its durable stores.
    second = build_domain()
    second.share_object(OBJECT_ID, {"v": 0})
    recovered = second.recover_runs()
    _require(
        recovered[victim_uri] == {crashed_run_id: "aborted"},
        f"victim recovery did not abort the crashed run: {recovered!r}",
    )
    victim = second.organisation(victim_uri)
    resumed_version = victim.shared_version(OBJECT_ID)
    _require(
        resumed_version == 1,
        f"durable resume landed at version {resumed_version}, wanted 1",
    )
    # The simulator's analogue of the wire victim's reconnect resync.
    applied = victim.controller.catch_up(OBJECT_ID, proposer_uri)
    confirm = victim.propose_update(OBJECT_ID, values["confirm"])
    _require(confirm.agreed, "confirm update did not agree after resync")
    _require_honest(first.organisations.values(), settled=False)  # crashed world
    _require_honest(second.organisations.values())

    labelled = {
        "bootstrap": bootstrap.run_id,
        "crashed": crashed_run_id,
        "partitioned": partitioned.run_id,
        "confirm": confirm.run_id,
    }
    org_for = second.organisation
    return {
        "versions": {uri: org_for(uri).shared_version(OBJECT_ID) for uri in uris},
        "states": {uri: org_for(uri).shared_state(OBJECT_ID) for uri in uris},
        "evidence": {
            label: {
                uri: _evidence_summary(org_for(uri), [run_id]) for uri in uris
            }
            for label, run_id in labelled.items()
        },
        "recovery": {
            "crashed_run": "aborted",
            "resumed_version": resumed_version,
            "resync_applied": applied,
        },
    }


# -- the wire leg's victim process ---------------------------------------------------
#
# ``python -m repro.faults.chaos --victim-dir ... --victim-phase run`` is the
# victim's entry point.  Its first life introduces itself, applies the
# bootstrap wave, then arms the client-side crash failpoint and proposes into
# it: the armed callable SIGKILLs the process on its first outbound protocol
# send, after the proposal hit the journal.  Its second life restarts over
# the same keypair and stores and must converge without re-registration.


def _victim_keypair(directory: Path):
    """The victim's identity, persisted so both lives sign as the same party."""
    from repro.crypto.keys import KeyPair, PrivateKey, PublicKey
    from repro.crypto.signature import get_scheme

    key_path = directory / "victim-keypair.json"
    if key_path.exists():
        payload = json.loads(key_path.read_text())
        return KeyPair(
            private=PrivateKey.from_dict(payload["private"]),
            public=PublicKey.from_dict(payload["public"]),
        )
    keypair = get_scheme("hmac").generate_keypair()
    key_path.write_text(
        json.dumps(
            {
                "private": keypair.private.to_dict(),
                "public": keypair.public.to_dict(),
            }
        )
    )
    return keypair


def _victim_domain(directory: Path, storage_kind: str):
    uris = _uris(3)
    victim_uri = uris[2]
    endpoint = json.loads((directory / "host.json").read_text())
    keypair = _victim_keypair(directory)
    # A virtual clock keeps the victim's retry/orphan timers dormant unless
    # a fan-out drives them, so nothing fires between deciding the
    # partitioned wave and dying -- the restart owns all recovery.
    transport = WireTransport(
        local_parties=[victim_uri],
        peers={
            uri: (endpoint["host"], endpoint["port"]) for uri in uris[:2]
        },
        clock=SimulatedClock(),
    )
    domain = TrustDomain.create(
        uris,
        transport=transport,
        scheme="hmac",
        storage=_self_healing_profile(storage_kind, directory, "victim"),
        durable_runs=True,
        durable_state=True,
        keypair_factory=lambda uri: keypair,
    )
    return domain, transport, endpoint


def _victim_run(directory: Path, seed: int, storage_kind: str) -> None:
    """First life: decide the host's waves, then die on the next send."""
    values = _self_healing_values(seed)
    domain, transport, endpoint = _victim_domain(directory, storage_kind)
    uris = _uris(3)
    organisation = domain.organisation(uris[2])
    domain.share_object(OBJECT_ID, {"v": 0})
    domain.share_object(SIDE_OBJECT_ID, {"v": 0})
    transport.introduce_to(endpoint["host"], endpoint["port"])
    (directory / "victim-ready.json").write_text(
        json.dumps({"host": transport.host, "port": transport.port})
    )
    _wait_for(
        lambda: organisation.shared_version(OBJECT_ID) == 1,
        timeout=60.0,
        message="bootstrap wave never reached the victim",
    )
    # The host now coordinates the partitioned wave: this replica decides
    # it (phase 1 rides server replies, never the armed client path), but
    # the outcome is dropped host-side.  runs.json appearing is the signal
    # that the wave settled and this replica's turn to die has come.
    _wait_for(
        (directory / "runs.json").exists,
        timeout=60.0,
        message="host never published the partitioned run",
    )
    transport.network.failpoints.arm(
        FAILPOINT_CLIENT_BEFORE_SEND,
        action=lambda _message: os.kill(os.getpid(), signal.SIGKILL),
        max_shots=1,
    )
    organisation.propose_update(SIDE_OBJECT_ID, values["crashed"])
    # Unreachable: the proposal's first outbound send fired the failpoint.
    transport.close()
    raise SelfHealingScenarioError("client crash failpoint never fired")


def _victim_recover(directory: Path, seed: int, storage_kind: str) -> None:
    """Second life: durable resume, journal recovery, resync, keep working."""
    values = _self_healing_values(seed)
    runs = json.loads((directory / "runs.json").read_text())
    domain, transport, endpoint = _victim_domain(directory, storage_kind)
    uris = _uris(3)
    organisation = domain.organisation(uris[2])
    domain.share_object(OBJECT_ID, {"v": 0})

    resumed_version = organisation.shared_version(OBJECT_ID)
    _require(
        resumed_version == 1,
        f"durable resume landed at version {resumed_version}, wanted 1",
    )
    resumes = [
        record.details
        for record in organisation.audit_records(subject=OBJECT_ID)
        if record.details.get("event") == "object-resumed"
    ]
    _require(
        bool(resumes) and resumes[-1].get("resumed_version") == 1,
        f"restart did not resume from the recorded version: {resumes!r}",
    )
    actions = organisation.recover_runs()
    _require(
        list(actions.values()) == ["aborted"],
        f"journal recovery did not abort the half-proposed run: {actions!r}",
    )
    (crashed_run_id,) = actions

    # Reconnect: every introduction catches the local replicas up, pulling
    # the version agreed while this replica was dead.
    transport.introduce_to(endpoint["host"], endpoint["port"])
    _require(
        organisation.shared_version(OBJECT_ID) == 2,
        "resync on reconnect did not catch the replica up",
    )
    resync_applied = sum(
        1
        for record in organisation.audit_records(subject=runs["partitioned"])
        if record.details.get("event") == "resync-applied"
    )
    sweep = transport.resync_with_peers()
    _require(sweep == 0, f"resync was not idempotent after catch-up: {sweep!r}")

    confirm = organisation.propose_update(OBJECT_ID, values["confirm"])
    _require(confirm.agreed, "confirm update did not agree after recovery")
    _require_honest([organisation])

    labelled = {
        "bootstrap": runs["bootstrap"],
        "crashed": crashed_run_id,
        "partitioned": runs["partitioned"],
        "confirm": confirm.run_id,
    }
    result = {
        "crashed_run_id": crashed_run_id,
        "confirm_run_id": confirm.run_id,
        "version": organisation.shared_version(OBJECT_ID),
        "state": organisation.shared_state(OBJECT_ID),
        "evidence": {
            label: _evidence_summary(organisation, [run_id])
            for label, run_id in labelled.items()
        },
        "recovery": {
            "crashed_run": "aborted",
            "resumed_version": resumed_version,
            "resync_applied": resync_applied,
        },
    }
    (directory / "victim-result.json").write_text(json.dumps(result))
    transport.close()


def _victim_main(directory: Path, phase: str, seed: int, storage_kind: str) -> int:
    try:
        if phase == "run":
            _victim_run(directory, seed, storage_kind)
        else:
            _victim_recover(directory, seed, storage_kind)
    except Exception as error:  # surfaced to the host through the error file
        (directory / "victim-error.txt").write_text(
            f"{type(error).__name__}: {error}\n{traceback.format_exc()}"
        )
        return 2
    return 0


def _spawn_victim(
    directory: Path, phase: str, seed: int, storage_kind: str
) -> subprocess.Popen:
    source_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [source_root, env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.faults.chaos",
            "--victim-dir",
            str(directory),
            "--victim-phase",
            phase,
            "--seed",
            str(seed),
            "--self-healing-storage",
            storage_kind,
        ],
        env=env,
    )


def _victim_failure(directory: Path, fallback: str) -> str:
    error_file = directory / "victim-error.txt"
    if error_file.exists():
        return f"{fallback}:\n{error_file.read_text()}"
    return fallback


def _wired_self_healing(
    seed: int, directory: Path, storage_kind: str
) -> Dict[str, Any]:
    uris = _uris(3)
    proposer_uri, responder_uri, victim_uri = uris
    values = _self_healing_values(seed)
    with WireTransport(
        local_parties=[proposer_uri, responder_uri],
        await_remote_credentials=False,  # the victim introduces itself
        clock=SimulatedClock(),
    ) as transport:
        # The virtual clock keeps the host's retry scheduler dormant unless
        # driven, so re-delivery timing never races the victim's resync --
        # the comparison with the simulated leg stays exact.
        domain = TrustDomain.create(
            uris,
            transport=transport,
            scheme="hmac",
            storage=_self_healing_profile(storage_kind, directory, "host"),
            durable_runs=True,
            durable_state=True,
        )
        (directory / "host.json").write_text(
            json.dumps({"host": transport.host, "port": transport.port})
        )
        domain.share_object(OBJECT_ID, {"v": 0})
        domain.share_object(SIDE_OBJECT_ID, {"v": 0})
        proposer = domain.organisation(proposer_uri)

        first = _spawn_victim(directory, "run", seed, storage_kind)
        try:
            _wait_for(
                (directory / "victim-ready.json").exists,
                timeout=60.0,
                message=_victim_failure(
                    directory, "victim never introduced itself"
                ),
            )
            bootstrap = proposer.propose_update(OBJECT_ID, values["bootstrap"])
            _require(bootstrap.agreed, "bootstrap update did not agree")

            # Partitioned wave: the victim decides phase 1 normally; at the
            # commit barrier the proposer's client path to it is closed, so
            # only the outcome delivery is partitioned away and queued for
            # re-delivery (agreement is unanimous, so the victim must stay
            # reachable until the barrier).
            def sever_wave(stage: str, run) -> None:
                if stage == "after-journal-committed":
                    transport.network.failpoints.arm(
                        FAILPOINT_CLIENT_BEFORE_SEND,
                        action=lambda message: VERB_CLOSE
                        if getattr(message, "destination", None) == victim_uri
                        else None,
                        max_shots=None,
                    )

            set_run_fault_injector(sever_wave)
            try:
                partitioned = proposer.propose_update(
                    OBJECT_ID, values["partitioned"]
                )
            finally:
                set_run_fault_injector(None)
                transport.network.failpoints.disarm(
                    FAILPOINT_CLIENT_BEFORE_SEND
                )
            _require(partitioned.agreed, "partitioned update did not agree")
            _require(
                proposer.controller.pending_redeliveries()
                == [partitioned.run_id],
                "undelivered outcome wave was not queued for re-delivery",
            )

            # Publishing the run ids doubles as the victim's go-signal: it
            # now proposes into its armed client crash failpoint and dies
            # post-commit, holding version 1 and a half-proposed journal.
            (directory / "runs.json").write_text(
                json.dumps(
                    {
                        "bootstrap": bootstrap.run_id,
                        "partitioned": partitioned.run_id,
                    }
                )
            )
            _require(
                first.wait(timeout=60) == -signal.SIGKILL,
                _victim_failure(
                    directory, "victim was not SIGKILLed by its crash failpoint"
                ),
            )
        finally:
            if first.poll() is None:
                first.kill()

        second = _spawn_victim(directory, "recover", seed, storage_kind)
        try:
            _require(
                second.wait(timeout=60) == 0,
                _victim_failure(directory, "victim recovery failed"),
            )
        finally:
            if second.poll() is None:
                second.kill()
        result = json.loads((directory / "victim-result.json").read_text())

        host_uris = (proposer_uri, responder_uri)
        _wait_for(
            lambda: all(
                domain.organisation(uri).shared_version(OBJECT_ID) == 3
                for uri in host_uris
            ),
            timeout=30.0,
            message="host replicas never applied the confirm update",
        )

        # The confirm version superseded the queued re-delivery; driving the
        # scheduler must retire it without touching the converged victim.
        scheduler = domain.retry_scheduler
        scheduler.drive_until(
            lambda: proposer.controller.pending_redeliveries() == []
        )
        redelivery_events = {
            record.details.get("event")
            for record in proposer.audit_records(subject=partitioned.run_id)
        }
        _require(
            "outcome-redelivery-superseded" in redelivery_events,
            f"re-delivery did not retire as superseded: {redelivery_events!r}",
        )
        _require(
            scheduler.pending_timers() == 0,
            "host scheduler leaked timers after convergence",
        )
        _require_honest(domain.organisations.values())

        labelled = {
            "bootstrap": bootstrap.run_id,
            "crashed": result["crashed_run_id"],
            "partitioned": partitioned.run_id,
            "confirm": result["confirm_run_id"],
        }
        versions = {
            uri: domain.organisation(uri).shared_version(OBJECT_ID)
            for uri in host_uris
        }
        versions[victim_uri] = result["version"]
        states = {
            uri: domain.organisation(uri).shared_state(OBJECT_ID)
            for uri in host_uris
        }
        states[victim_uri] = result["state"]
        evidence = {
            label: {
                uri: _evidence_summary(domain.organisation(uri), [run_id])
                for uri in host_uris
            }
            for label, run_id in labelled.items()
        }
        for label in evidence:
            evidence[label][victim_uri] = result["evidence"][label]
        return {
            "versions": versions,
            "states": states,
            "evidence": evidence,
            "recovery": result["recovery"],
        }


def run_self_healing_scenario(
    seed: int, storage: str = "sqlite"
) -> SelfHealingReport:
    """Kill a replica post-commit, restart it, and check full convergence.

    Runs the same seeded narrative on the simulator and on a 2-node wire
    deployment whose victim is a real subprocess SIGKILLed by the
    client-side crash failpoint: bootstrap update, victim dies with a
    half-proposed run, an update is agreed without it (outcome wave
    partitioned away, re-delivery queued), then the victim restarts over
    its ``storage=`` profile -- durable resume + journal recovery + resync
    must reconverge every replica with zero manual re-registration.  The
    report's :meth:`~SelfHealingReport.mismatches` is empty exactly when
    both transports ended with identical versions, states, per-run evidence
    multisets, and recovery actions.
    """
    report = SelfHealingReport(seed=seed, storage=storage)
    directory = Path(tempfile.mkdtemp(prefix="chaos-self-healing-"))
    try:
        report.simulated = _simulated_self_healing(
            seed, _self_healing_profile(storage, directory, "sim")
        )
        report.wired = _wired_self_healing(seed, directory, storage)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return report


def write_self_healing_artifact(report: SelfHealingReport, directory: str) -> str:
    """Dump both legs' summaries; the seed alone replays the scenario."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"self-healing-{report.seed}.json")
    payload = {
        "seed": report.seed,
        "storage": report.storage,
        "mismatches": report.mismatches(),
        "simulated": report.simulated,
        "wired": report.wired,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Replay a seeded chaos plan across both transports."
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--parties", type=int, default=3)
    parser.add_argument(
        "--values", type=int, nargs="+", default=None,
        help="update values to propose (default: 1 2 3)",
    )
    parser.add_argument(
        "--artifact-dir", default=None,
        help="write a replayable failure artifact here on divergence",
    )
    parser.add_argument(
        "--trace-artifact", default=None, metavar="DIR",
        help=(
            "trace both legs and, on divergence, write their rendered "
            "span trees here alongside the replayable plan"
        ),
    )
    parser.add_argument(
        "--self-healing", action="store_true",
        help="run the kill/restart/resync scenario instead of the fault plan",
    )
    parser.add_argument(
        "--self-healing-storage", default="sqlite",
        help="persistent storage profile for --self-healing (file or sqlite)",
    )
    # Internal: entry point of the wire leg's victim subprocess.
    parser.add_argument("--victim-dir", default=None, help=argparse.SUPPRESS)
    parser.add_argument(
        "--victim-phase", choices=("run", "recover"), default=None,
        help=argparse.SUPPRESS,
    )
    options = parser.parse_args(argv)
    if options.victim_dir:
        return _victim_main(
            Path(options.victim_dir),
            options.victim_phase or "run",
            options.seed,
            options.self_healing_storage,
        )
    if options.self_healing:
        report = run_self_healing_scenario(
            options.seed, storage=options.self_healing_storage
        )
        if report.converged:
            print(
                f"converged: self-healing seed {report.seed} "
                f"over {report.storage} storage"
            )
            return 0
        for problem in report.mismatches():
            print(problem)
        if options.artifact_dir:
            print(
                "artifact: "
                f"{write_self_healing_artifact(report, options.artifact_dir)}"
            )
        return 1
    plan = standard_chaos_plan(options.seed)
    report = run_cross_transport_scenario(
        plan,
        parties=options.parties,
        values=options.values,
        capture_traces=options.trace_artifact is not None,
    )
    if report.converged:
        print(f"converged: plan {plan.name} over {options.parties} parties")
        return 0
    for problem in report.mismatches():
        print(problem)
    if options.artifact_dir:
        print(f"artifact: {write_failure_artifact(report, options.artifact_dir)}")
    if options.trace_artifact:
        print(f"traces: {write_trace_artifact(report, options.trace_artifact)}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())

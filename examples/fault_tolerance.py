#!/usr/bin/env python
"""Liveness and safety under injected faults.

The trusted-interceptor assumptions (Section 3.1) only require eventual
message delivery with a bounded number of temporary failures.  This example
injects message loss, duplication and latency into the simulated network, and
also crashes a participant, to show:

* non-repudiable invocations and shared-state updates still complete
  (liveness) once retries get messages through;
* duplicated messages never cause double execution (at-most-once);
* a crashed or vetoing participant can block agreement but can never cause
  replicas to diverge or unauthorised state to be applied (safety);
* an update that *agrees* but whose signed outcome wave never reaches one
  peer heals itself on a default configuration -- through proposer-driven
  outcome re-delivery, or through the stale peer catching itself up -- with
  every step audited;
* the evidence and audit trail remain complete and verifiable throughout;
* with the observability plane on, the degraded run and its self-repair
  show up as one span tree, and the metrics registry prices the work.

Run with::

    python examples/fault_tolerance.py
"""

from __future__ import annotations

from repro import (
    ComponentDescriptor,
    DomainConfig,
    FaultConfig,
    FaultModel,
    TrustDomain,
)
from repro.core.config import ObservabilityConfig
from repro.core.sharing import set_run_fault_injector
from repro.observability import runtime as observability
from repro.observability.exporters import metrics_snapshot
from repro.observability.tracing import render_tree


class InventoryService:
    """Provider-side service; counts executions to demonstrate at-most-once."""

    def __init__(self) -> None:
        self.executions = 0

    def reserve(self, part: str, quantity: int) -> dict:
        self.executions += 1
        return {"part": part, "quantity": quantity, "reservation": f"res-{self.executions}"}


def main() -> None:
    fault_model = FaultModel(
        drop_probability=0.5,        # half of all sends are lost...
        duplicate_probability=0.2,   # ...some delivered messages are duplicated...
        latency_seconds=0.005,       # ...and every delivery takes time.
        jitter_seconds=0.01,
        max_consecutive_drops=4,     # bounded failures: retries eventually succeed
        seed=b"fault-tolerance-example",
    )
    parties = ["urn:org:buyer", "urn:org:warehouse", "urn:org:auditor"]
    domain = TrustDomain.create(
        parties, config=DomainConfig(faults=FaultConfig(model=fault_model))
    )
    buyer = domain.organisation("urn:org:buyer")
    warehouse = domain.organisation("urn:org:warehouse")
    auditor = domain.organisation("urn:org:auditor")

    inventory = InventoryService()
    warehouse.deploy(
        inventory, ComponentDescriptor(name="InventoryService", non_repudiation=True)
    )
    domain.share_object("stock-ledger", {"reservations": []})

    # 1. Ten invocations over the lossy network: all complete, each executes once.
    for i in range(10):
        outcome = buyer.invoke_non_repudiably(
            warehouse.uri, "InventoryService", "reserve", [f"part-{i}", 1]
        )
        assert outcome.succeeded
    stats = domain.network.statistics
    print("invocations completed: 10")
    print(f"  network attempts: {stats.messages_sent}, dropped: {stats.messages_dropped}, "
          f"duplicated: {stats.messages_duplicated}")
    print(f"  business executions (at-most-once holds): {inventory.executions}")
    print(f"  simulated time elapsed: {domain.network.clock.now():.3f}s")

    # 2. Shared-state updates under the same faults.
    for i in range(3):
        state = buyer.shared_state("stock-ledger")
        state["reservations"].append(f"res-{i}")
        outcome = buyer.propose_update("stock-ledger", state)
        assert outcome.agreed
    digests = {org.controller.state_digest("stock-ledger").hex()[:12]
               for org in (buyer, warehouse, auditor)}
    print("\nshared-state updates agreed: 3, replicas consistent:", len(digests) == 1)

    # 3. Crash the auditor: agreement becomes impossible (no unanimity), but
    #    state never diverges; after recovery, coordination resumes.
    domain.network.set_online(auditor.uri, False)
    state = buyer.shared_state("stock-ledger")
    state["reservations"].append("while-auditor-down")
    blocked = buyer.propose_update("stock-ledger", state)
    print("\nupdate while auditor crashed agreed:", blocked.agreed)
    print("ledger unchanged everywhere:",
          buyer.shared_state("stock-ledger") == warehouse.shared_state("stock-ledger"))

    domain.network.set_online(auditor.uri, True)
    recovered = buyer.propose_update("stock-ledger", state)
    print("after recovery, same update agreed:", recovered.agreed)
    print("auditor caught up:",
          auditor.shared_state("stock-ledger") == buyer.shared_state("stock-ledger"))

    # 4. Evidence and audit trails survived all of it.
    total_evidence = sum(
        org.evidence_store.total_records() for org in (buyer, warehouse, auditor)
    )
    print(f"\ntotal evidence records across parties: {total_evidence}")
    print("audit logs intact:",
          all(org.audit_log.verify_integrity() for org in (buyer, warehouse, auditor)))

    # 5. A degraded run heals itself, with nothing configured for it.
    #    Agreement is decided in phase 1, so a partition that hits *between*
    #    the commit barrier and the outcome wave leaves the run agreed
    #    everywhere but one peer never learns the result.  The proposer
    #    queues the signed outcome and a scheduler task re-pushes it until
    #    the peer acks -- no operator action, and the whole repair is in the
    #    audit log.  Observability is on for this domain, so the degraded run
    #    -- fan-out, commit, severed outcome wave and the re-delivery that
    #    repairs it -- is captured as one span tree (section 6 renders it).
    healing = TrustDomain.create(
        parties, config=DomainConfig(observability=ObservabilityConfig())
    )
    h_buyer = healing.organisation("urn:org:buyer")
    h_auditor = healing.organisation("urn:org:auditor")
    healing.share_object("orders", {"accepted": 0})

    def sever_outcome_wave(stage, run):
        # Fires on the proposer between "everyone decided" and "send the
        # signed outcome": the auditor approved the update but never hears
        # that it won.
        if stage == "after-journal-committed":
            healing.network.partition.sever(h_buyer.uri, h_auditor.uri)

    set_run_fault_injector(sever_outcome_wave)
    try:
        degraded = h_buyer.propose_update("orders", {"accepted": 1})
    finally:
        set_run_fault_injector(None)
    print("\nupdate agreed with its outcome wave severed:", degraded.agreed)
    print("auditor left one version behind:",
          h_auditor.shared_version("orders"), "<", h_buyer.shared_version("orders"))
    print("outcome queued for re-delivery:",
          h_buyer.controller.pending_redeliveries() == [degraded.run_id])

    healing.network.partition.heal_all()
    healing.retry_scheduler.drive_until(
        lambda: not h_buyer.controller.pending_redeliveries()
    )
    print("after the link heals, auditor caught up:",
          h_auditor.shared_state("orders") == h_buyer.shared_state("orders"))
    print("re-delivery audit trail (buyer):")
    for record in h_buyer.audit_records(subject=degraded.run_id):
        event = record.details.get("event", "")
        if event.startswith("outcome-redeliver"):
            extras = {k: v for k, v in record.details.items()
                      if k not in ("event", "object_id")}
            print(f"  {event} {extras}" if extras else f"  {event}")

    #    Had the re-delivery not reached it, the auditor would still catch
    #    itself up: sever the next wave the same way, heal the link without
    #    driving the scheduler, and let the auditor propose.  Its proposal
    #    is blocked by the run it accepted but never saw settle, so it first
    #    pulls the missed version from that run's proposer (signature-checked
    #    and version-guarded), then proposes on top of it.
    set_run_fault_injector(sever_outcome_wave)
    try:
        missed = h_buyer.propose_update("orders", {"accepted": 2})
    finally:
        set_run_fault_injector(None)
    healing.network.partition.heal_all()
    caught_up = h_auditor.propose_update("orders", {"accepted": 3})
    print("auditor's own proposal after a missed outcome agreed:", caught_up.agreed)
    print("auditor caught itself up:", any(
        record.details.get("event") == "resync-applied"
        for record in h_auditor.audit_records(subject=missed.run_id)
    ))
    healing.retry_scheduler.drive_until(
        lambda: not h_buyer.controller.pending_redeliveries()
    )
    print("replicas consistent =", len({
        org.controller.state_digest("orders") for org in healing.organisations.values()
    }) == 1)

    # 6. The whole story on the observability plane: the run id is the trace
    #    id, so the degraded update, the commit barrier its severed outcome
    #    wave hung off, and the re-delivery that finally reached the auditor
    #    render as one connected tree; the metrics registry priced the work.
    print("\nspan tree of the self-healing run:")
    print(render_tree(observability.STATE.tracing.spans(), degraded.run_id))
    snapshot = metrics_snapshot()
    print("metrics snapshot (selected):")
    for name in ("crypto.sign_seconds", "run.duration_seconds"):
        histogram = snapshot["histograms"][name]
        print(f"  {name}: count={histogram['count']} sum={histogram['sum']:.4f}s")
    observability.disable()


if __name__ == "__main__":
    main()

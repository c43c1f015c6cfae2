"""The six workloads: what is deployed, what one operation is, what is counted.

Only the API surface ROADMAP items 2-3 keep is used (``TrustDomain.create``
with ``config=``, ``share_object``, ``propose_update``, ``deploy`` and the
proxies, ``WireTransport``, ``DurabilityConfig``, ``FaultConfig``, network
statistics, ``storage_bytes`` and ``DisputeResolver``), so the same file
measures the tree before and after those refactors.

Every workload is closed loop with one client: the caller blocks for the
reply.  Simulated workloads inject no message delay and run on the virtual
clock, so their latency is processor time only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro import (
    ClaimType,
    ComponentDescriptor,
    DisputeClaim,
    DisputeResolver,
    DomainConfig,
    DurabilityConfig,
    FaultConfig,
    StorageProfile,
    TransportConfig,
    TrustDomain,
)
from repro.crypto.signature import clear_verification_cache
from repro.faults import FaultPlan, FaultRule
from repro.persistence.evidence_store import EvidenceStore
from repro.transport.scheduler import RetryScheduler
from repro.transport.wire import WireTransport

from nrbench import inputs, oracle

OBJECT_ID = "order-book"
INITIAL_STATE = {"order": "none", "items": {}, "note": ""}
PEER_TIMEOUT_S = 60


def party_uris(count: int) -> List[str]:
    return [f"urn:nrbench:party{index}" for index in range(count)]


def evidence_bytes(organisations) -> int:
    return sum(org.evidence_store.storage_bytes() for org in organisations)


def network_counts(delta) -> Dict[str, int]:
    """Delivery effort and injected faults of a statistics delta."""
    return {
        "attempts": sum(delta.attempts_per_destination.values()),
        "retries": sum(delta.failed_attempts_per_destination().values()),
        "dropped": delta.messages_dropped,
        "duplicated": delta.messages_duplicated,
    }


class Workload:
    """One deployment plus the operation that is timed against it."""

    name = ""
    warmup = 20
    #: Layer that owns the operation's root span (see ``layers.Ledger``).
    root_layer = "core.engine"
    #: Protocol counters of a simulated workload repeat exactly per seed.
    exact_counts = True
    #: Called between operations, outside the timed span (or ``None``).
    after_operation = None

    def __init__(self, seed: int, ops: int, scratch: str, trace: bool) -> None:
        self.seed = seed
        self.ops = ops
        self.scratch = scratch
        self.trace = trace

    def build(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def mark(self) -> None:
        """Start of the timed window: snapshot every cumulative counter."""

    def operation(self, index: int) -> bool:
        raise NotImplementedError

    def finish(self) -> Dict[str, Any]:
        """End of the timed window: counter deltas and other processes' costs."""
        raise NotImplementedError

    def check(self) -> List[str]:
        """The oracle; returns failures (empty when the outputs are correct)."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything the workload started."""


class Sharing(Workload):
    """Agreed updates to one long-lived shared object, proposed by party 0."""

    parties = 0

    @property
    def updates(self) -> int:
        """Updates agreed after the warm-up (every timed operation is one)."""
        return self.ops

    def config(self) -> DomainConfig:
        return DomainConfig()

    def create_domain(self) -> TrustDomain:
        return TrustDomain.create(self.uris, config=self.config())

    def build(self) -> None:
        self.uris = party_uris(self.parties)
        self.domain = self.create_domain()
        self.domain.share_object(OBJECT_ID, dict(INITIAL_STATE), self.uris)
        self.proposer = self.domain.organisation(self.uris[0])
        self.documents = inputs.documents(
            self.seed, self.name, self.warmup + self.updates
        )
        self.run_ids: List[str] = []

    def warm_up(self) -> None:
        for document in self.documents[: self.warmup]:
            self.proposer.propose_update(OBJECT_ID, document).require_agreed()

    def local_organisations(self):
        return list(self.domain.organisations.values())

    def mark(self) -> None:
        self._statistics = self.domain.network.statistics.snapshot()
        self._evidence = evidence_bytes(self.local_organisations())

    def operation(self, index: int) -> bool:
        outcome = self.proposer.propose_update(
            OBJECT_ID, self.documents[self.warmup + index]
        )
        self.run_ids.append(outcome.run_id)
        return outcome.agreed

    def finish(self) -> Dict[str, Any]:
        delta = self.domain.network.statistics.delta(self._statistics)
        stored = evidence_bytes(self.local_organisations()) - self._evidence
        return {
            "messages_per_op": delta.messages_delivered / self.ops,
            "bytes_per_op": delta.bytes_delivered / self.ops,
            "evidence_bytes_per_op": stored / self.ops,
            "network": network_counts(delta),
        }

    def sampled_runs(self) -> List[str]:
        return [
            self.run_ids[index]
            for index in inputs.oracle_sample(self.seed, self.name, len(self.run_ids))
        ]

    def check(self) -> List[str]:
        organisations = self.local_organisations()
        failures = oracle.check_replicas(
            [oracle.replica_report(org, OBJECT_ID) for org in organisations],
            self.warmup + self.updates,
        )
        for holder in (organisations[0], organisations[-1]):
            failures += oracle.unrefuted_denials(
                holder, self.sampled_runs(), self.uris[0], self.uris, OBJECT_ID
            )
        return failures


class Share8Sim(Sharing):
    name = "share8_sim"
    parties = 8


class Share5Sqlite(Sharing):
    name = "share5_sqlite"
    parties = 5

    def storage(self) -> str:
        return f"sqlite:{os.path.join(self.scratch, 'evidence.db')}"

    def config(self) -> DomainConfig:
        return DomainConfig(
            durability=DurabilityConfig(
                storage=self.storage(), durable_runs=True, durable_state=True
            )
        )


class Share5Lossy(Sharing):
    name = "share5_lossy"
    parties = 5

    def config(self) -> DomainConfig:
        plan = FaultPlan(
            rules=(
                FaultRule("drop", probability=0.10),
                FaultRule("duplicate", probability=0.05),
            ),
            seed=inputs.fault_seed(self.seed, self.name),
            name="nrbench-lossy",
        )
        return DomainConfig(faults=FaultConfig(plan=plan))

    def create_domain(self) -> TrustDomain:
        domain = super().create_domain()
        # Retries go through the retry scheduler, the engine ROADMAP item 2
        # keeps.  Today a default domain has none (its retries are a blocking
        # loop) and the switch that attaches one, ``ReliabilityConfig``, goes
        # away with that item; the network's own setter does the same, and
        # is skipped once a domain comes with its scheduler.
        network = domain.network
        if getattr(network, "retry_scheduler", None) is None and hasattr(
            network, "set_retry_scheduler"
        ):
            network.set_retry_scheduler(RetryScheduler(network.clock))
        return domain

    def check(self) -> List[str]:
        failures = super().check()
        dropped = self.domain.network.statistics.messages_dropped
        if dropped == 0:
            failures.append("the fault plan dropped nothing: retries were not exercised")
        return failures


class Share3Wire(Sharing):
    """Proposer here, two responders in one peer process, real loopback TCP."""

    name = "share3_wire"
    parties = 3
    # Wall-clock timestamps vary in width, so byte counters move by a few bytes.
    exact_counts = False

    def create_domain(self) -> TrustDomain:
        self.transport = None
        self.peer = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "nrbench.peer",
                json.dumps(
                    {
                        "parties": self.uris,
                        "local": self.uris[1:],
                        "object_id": OBJECT_ID,
                        "initial_state": INITIAL_STATE,
                        "trace": self.trace,
                    }
                ),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        endpoint = self._peer_reply()
        address = (endpoint["host"], endpoint["port"])
        self.transport = WireTransport(
            local_parties=self.uris[:1],
            peers={uri: address for uri in self.uris[1:]},
            await_remote_credentials=True,
        )
        return TrustDomain.create(
            self.uris,
            config=DomainConfig(transport=TransportConfig(wire=self.transport)),
        )

    def _peer_reply(self) -> Dict[str, Any]:
        line = self.peer.stdout.readline()
        if not line:
            raise RuntimeError(f"wire peer exited with code {self.peer.wait()}")
        return json.loads(line)

    def _peer_call(self, command: Dict[str, Any]) -> Dict[str, Any]:
        self.peer.stdin.write(json.dumps(command) + "\n")
        self.peer.stdin.flush()
        return self._peer_reply()

    def mark(self) -> None:
        super().mark()
        self._peer_call({"cmd": "mark"})

    def finish(self) -> Dict[str, Any]:
        result = super().finish()
        self.peer_report = self._peer_call({"cmd": "report"})
        result["evidence_bytes_per_op"] += self.peer_report["evidence_bytes"] / self.ops
        result["peer"] = {
            key: self.peer_report[key] for key in ("cpu_s", "peak_rss_mb", "trace")
        }
        return result

    def check(self) -> List[str]:
        failures = oracle.check_replicas(
            [oracle.replica_report(self.proposer, OBJECT_ID)]
            + self.peer_report["replicas"],
            self.warmup + self.ops,
        )
        failures += oracle.unrefuted_denials(
            self.proposer, self.sampled_runs(), self.uris[0], self.uris, OBJECT_ID
        )
        failures += self._peer_call(
            {
                "cmd": "adjudicate",
                "runs": self.sampled_runs(),
                "proposer": self.uris[0],
                "members": self.uris,
            }
        )["failures"]
        return failures

    def close(self) -> None:
        peer = getattr(self, "peer", None)
        if peer is not None:
            try:
                if peer.poll() is None:
                    peer.stdin.write(json.dumps({"cmd": "stop"}) + "\n")
                    peer.stdin.flush()
                    peer.wait(timeout=PEER_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                pass
            finally:
                if peer.poll() is None:
                    peer.kill()
                    peer.wait()
                peer.stdin.close()
                peer.stdout.close()
        if getattr(self, "transport", None) is not None:
            self.transport.close()


class Audit5Sqlite(Share5Sqlite):
    """The read side of ``share5_sqlite``: adjudicate stored runs, cold.

    Set-up agrees ``UPDATES`` updates; each pass then opens a fresh evidence
    store over party 1's backend, drops the verification memo and audits
    every run against the four other members.  One operation is one run
    audited for all four counterparties.
    """

    name = "audit5_sqlite"
    UPDATES = 200
    root_layer = "driver"

    @property
    def updates(self) -> int:
        return min(self.UPDATES, self.ops)

    def build(self) -> None:
        super().build()
        self.auditor = self.domain.organisation(self.uris[1])
        self.resolver = DisputeResolver(self.auditor.evidence_verifier)
        self.store: Optional[EvidenceStore] = None

    def warm_up(self) -> None:
        super().warm_up()
        before = self.domain.network.statistics.snapshot()
        stored = evidence_bytes(self.local_organisations())
        for index in range(self.updates):
            if not super().operation(index):
                raise RuntimeError(f"set-up update {index} was not agreed")
        delta = self.domain.network.statistics.delta(before)
        # The audit itself sends and stores nothing.  A 0 is not publishable
        # (the benchmark contract wants metrics that are never 0: the driver
        # takes every spread as a share of the median), so its protocol
        # counters are those of the updates whose evidence it reads.
        self.setup_counters = {
            "messages_per_op": delta.messages_delivered / self.updates,
            "bytes_per_op": delta.bytes_delivered / self.updates,
            "evidence_bytes_per_op": (
                evidence_bytes(self.local_organisations()) - stored
            )
            / self.updates,
        }
        self.claims = [
            [
                oracle.claim_against(member, self.uris[0], run_id, OBJECT_ID)
                for member in self.uris
                if member != self.auditor.uri
            ]
            for run_id in self.run_ids
        ]

    def mark(self) -> None:
        pass

    def operation(self, index: int) -> bool:
        position = index % self.updates
        if position == 0:
            clear_verification_cache()
            self.store = EvidenceStore(
                owner=self.auditor.uri,
                backend=StorageProfile.parse(self.storage()).backend_for(
                    self.auditor.uri, "evidence"
                ),
            )
        refuted = True
        for claim in self.claims[position]:
            refuted &= self.resolver.adjudicate_from_store(claim, self.store).refuted
        return refuted

    def finish(self) -> Dict[str, Any]:
        return dict(self.setup_counters, network={})

    def check(self) -> List[str]:
        organisations = self.local_organisations()
        failures = oracle.check_replicas(
            [oracle.replica_report(org, OBJECT_ID) for org in organisations],
            self.warmup + self.updates,
        )
        # A denial about a run that never happened must stand: the audit
        # would otherwise pass by refuting everything.
        bogus = DisputeClaim(
            ClaimType.DENIES_UPDATE_ORIGIN, "no-such-run", self.uris[0], OBJECT_ID
        )
        if self.resolver.adjudicate_from_store(bogus, self.store).refuted:
            failures.append("a denial about a run that never happened was refuted")
        return failures


class QuoteService:
    """The provider's component: a pure function of its arguments."""

    def quote(self, sku: str, quantity: int, note: str = "") -> Dict[str, Any]:
        return expected_quote(sku, quantity, note)


def expected_quote(sku: str, quantity: int, note: str) -> Dict[str, Any]:
    unit_cents = 100 + sum(sku.encode()) % 900
    return {
        "sku": sku,
        "quantity": quantity,
        "total_cents": unit_cents * quantity,
        "note_chars": len(note),
    }


class Invoke2Sim(Workload):
    """NR invocations through the interceptor chain, each paired with a plain call."""

    name = "invoke2_sim"
    root_layer = "container"

    def build(self) -> None:
        self.uris = party_uris(2)
        self.domain = TrustDomain.create(self.uris, config=DomainConfig())
        self.client = self.domain.organisation(self.uris[0])
        self.provider = self.domain.organisation(self.uris[1])
        # The same service twice: the server decides per deployment whether
        # non-repudiation applies, and rejects plain calls where it does.
        self.provider.deploy(
            QuoteService(), ComponentDescriptor(name="Quotes", non_repudiation=True)
        )
        self.provider.deploy(
            QuoteService(), ComponentDescriptor(name="PlainQuotes", non_repudiation=False)
        )
        self.nr = self.client.nr_proxy(self.provider, "Quotes")
        self.plain = self.client.plain_proxy(self.provider, "PlainQuotes")
        self.arguments = inputs.invocations(self.seed, self.name, self.warmup + self.ops)
        self.plain_seconds: List[float] = []
        self.wrong_plain_results = 0

    def warm_up(self) -> None:
        for arguments in self.arguments[: self.warmup]:
            self.nr.quote(**arguments)
            self.plain.quote(**arguments)

    def mark(self) -> None:
        self._statistics = self.domain.network.statistics.snapshot()
        self._evidence = evidence_bytes(self.domain.organisations.values())
        self.plain_messages = self.plain_bytes = 0

    def operation(self, index: int) -> bool:
        arguments = self.arguments[self.warmup + index]
        return self.nr.quote(**arguments) == expected_quote(**arguments)

    def after_operation(self, index: int) -> None:
        arguments = self.arguments[self.warmup + index]
        statistics = self.domain.network.statistics
        messages, size = statistics.messages_delivered, statistics.bytes_delivered
        started = perf_counter()
        result = self.plain.quote(**arguments)
        self.plain_seconds.append(perf_counter() - started)
        # The plain call is a baseline, not the workload: its traffic is
        # taken out of the protocol counters.
        self.plain_messages += statistics.messages_delivered - messages
        self.plain_bytes += statistics.bytes_delivered - size
        if result != expected_quote(**arguments):
            self.wrong_plain_results += 1

    def finish(self) -> Dict[str, Any]:
        delta = self.domain.network.statistics.delta(self._statistics)
        stored = evidence_bytes(self.domain.organisations.values()) - self._evidence
        return {
            "messages_per_op": (delta.messages_delivered - self.plain_messages)
            / self.ops,
            "bytes_per_op": (delta.bytes_delivered - self.plain_bytes) / self.ops,
            "evidence_bytes_per_op": stored / self.ops,
            "plain_samples_us": [seconds * 1e6 for seconds in self.plain_seconds],
            "network": dict(
                network_counts(delta),
                attempts=sum(delta.attempts_per_destination.values())
                - self.plain_messages,
            ),
        }

    def check(self) -> List[str]:
        failures = []
        if self.wrong_plain_results:
            failures.append(f"{self.wrong_plain_results} plain calls returned a wrong value")
        run_ids = self.client.evidence_store.run_ids()
        if len(run_ids) != self.warmup + self.ops:
            failures.append(
                f"client holds evidence for {len(run_ids)} runs, "
                f"expected {self.warmup + self.ops}"
            )
        client, provider = self.uris
        denials = [
            (ClaimType.DENIES_REQUEST_ORIGIN, client, self.provider),
            (ClaimType.DENIES_RESPONSE_RECEIPT, client, self.provider),
            (ClaimType.DENIES_REQUEST_RECEIPT, provider, self.client),
            (ClaimType.DENIES_RESPONSE_ORIGIN, provider, self.client),
        ]
        for index in inputs.oracle_sample(self.seed, self.name, len(run_ids)):
            for claim_type, denier, holder in denials:
                verdict = DisputeResolver(holder.evidence_verifier).adjudicate_from_store(
                    DisputeClaim(claim_type, run_ids[index], denier),
                    holder.evidence_store,
                )
                if not verdict.refuted:
                    failures.append(
                        f"{holder.uri} cannot refute {claim_type.value} for run "
                        f"{run_ids[index]}: {verdict.reasoning}"
                    )
        return failures


WORKLOADS = {
    workload.name: workload
    for workload in (
        Share8Sim,
        Invoke2Sim,
        Share3Wire,
        Share5Sqlite,
        Share5Lossy,
        Audit5Sqlite,
    )
}

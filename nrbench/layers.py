"""The entry-point table and the per-layer ledger derived from a traced round.

Layers are named after the ``repro`` modules they cover.  Only public
functions are listed, and only at layer boundaries: recursive helpers
(``codec.to_jsonable``) and in-memory backends (a dict store) are left to
their caller's self time, which keeps the cost of the traced pass down and
makes ``persistence.backend.*`` read zero on memory workloads.  Of the
backends that do I/O only SQLite is listed: no workload uses the file one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from nrbench.tracer import EntryPoint


def _encoded_chars(args: tuple, _kwargs: dict, result: Any) -> int:
    # An already-canonical value passes through without being encoded.
    if args and type(args[0]).__name__ == "Encoded":
        return 0
    return len(result) if result is not None else 0


def _put_bytes(args: tuple, _kwargs: dict, _result: Any) -> int:
    return len(args[2]) if len(args) > 2 else 0


def _frame_out(args: tuple, _kwargs: dict, _result: Any) -> int:
    return len(args[1]) if len(args) > 1 else 0


def _frame_in(_args: tuple, _kwargs: dict, result: Any) -> int:
    return len(result) if result is not None else 0


CODEC_ENCODE = "repro.codec:encode_text"
CODEC_DECODE = "repro.codec:decode"
HASH = "repro.crypto.hashing:secure_hash"
SIGN = "repro.crypto.signature:SignatureScheme.sign"
VERIFY = "repro.crypto.signature:SignatureScheme.verify"
EVIDENCE_BUILD = "repro.core.evidence:EvidenceBuilder.build"
EVIDENCE_CHECK = "repro.core.evidence:EvidenceVerifier.verify_all"
STORE_WRITE = "repro.persistence.evidence_store:EvidenceStore.store"
STORE_READS = [
    "repro.persistence.evidence_store:EvidenceStore.evidence_for_run",
    "repro.persistence.evidence_store:EvidenceStore.tokens_of_type",
]
JOURNAL_WRITES = [
    "repro.persistence.run_journal:RunJournal.record_proposed",
    "repro.persistence.run_journal:RunJournal.record_committed",
    "repro.persistence.run_journal:RunJournal.record_settled",
]
STATE_WRITES = [
    "repro.persistence.state_store:StateStore.record_version",
    "repro.persistence.state_store:StateStore.record_outcome",
]
AUDIT_APPEND = "repro.persistence.audit_log:AuditLog.append"
BACKEND_PUTS = ["repro.persistence.sqlite_backend:SQLiteBackend.put"]
BACKEND_READS = [
    "repro.persistence.sqlite_backend:SQLiteBackend.get",
    "repro.persistence.sqlite_backend:SQLiteBackend.scan",
    "repro.persistence.sqlite_backend:SQLiteBackend.scan_keys",
    "repro.persistence.sqlite_backend:SQLiteBackend.scan_stats",
]
NETWORK_SENDS = [
    "repro.transport.network:SimulatedNetwork.send",
    "repro.transport.network:SimulatedNetwork.send_batch",
]
RMI_SERVE = "repro.transport.rmi:RemoteStub.invoke"
DELIVERY = [
    "repro.transport.delivery:ReliableChannel.send",
    "repro.transport.delivery:ReliableChannel.send_batch",
    "repro.transport.delivery:ReliableChannel.send_scheduled",
    "repro.transport.delivery:ReliableChannel.send_batch_scheduled",
]
TIMER = "repro.transport.scheduler:RetryScheduler.schedule"
FAULT_DECIDE = "repro.faults.plan:FaultInjector.decide"
WIRE_REQUEST = "repro.transport.wire.connection:ConnectionPool.request"
WIRE_CODEC = [
    "repro.transport.wire.wirecodec:encode_body",
    "repro.transport.wire.wirecodec:decode_body",
]
FRAME_READ = "repro.transport.wire.framing:read_frame"
FRAME_WRITE = "repro.transport.wire.framing:write_frame"


def _entries(layer: str, names: List[str], units=None) -> List[EntryPoint]:
    return [EntryPoint(name, layer, units) for name in names]


ENTRY_POINTS: List[EntryPoint] = (
    [EntryPoint(CODEC_ENCODE, "codec", _encoded_chars), EntryPoint(CODEC_DECODE, "codec")]
    + [EntryPoint(HASH, "crypto.hash")]
    + [EntryPoint(SIGN, "crypto.sign"), EntryPoint(VERIFY, "crypto.verify")]
    + _entries("core.evidence", [EVIDENCE_BUILD, EVIDENCE_CHECK])
    + _entries(
        "core.engine",
        [
            "repro.core.coordinator:B2BCoordinator.deliver",
            "repro.core.coordinator:B2BCoordinator.deliver_request",
            "repro.core.invocation:B2BInvocationHandler.invoke_with_evidence",
        ],
    )
    + _entries(
        "core.dispute",
        [
            "repro.core.dispute:DisputeResolver.adjudicate",
            "repro.core.dispute:DisputeResolver.adjudicate_from_store",
        ],
    )
    + _entries("container", ["repro.container.container:Container.dispatch"])
    + _entries("persistence.evidence_store", [STORE_WRITE] + STORE_READS)
    + _entries("persistence.run_journal", JOURNAL_WRITES)
    + _entries("persistence.state_store", STATE_WRITES)
    + _entries("persistence.audit_log", [AUDIT_APPEND])
    + _entries("persistence.backend", BACKEND_PUTS, _put_bytes)
    + _entries("persistence.backend", BACKEND_READS)
    + _entries("transport.network", NETWORK_SENDS)
    + _entries(
        "transport.rmi",
        [
            RMI_SERVE,
            "repro.transport.rmi:RemoteProxy.invoke",
            "repro.transport.rmi:RemoteInvoker.call_batch_async",
        ],
    )
    + _entries("transport.delivery", DELIVERY)
    + _entries(
        "transport.scheduler",
        [
            TIMER,
            "repro.transport.scheduler:RetryScheduler.fire_due",
            "repro.transport.scheduler:RetryScheduler.drive_until",
        ],
    )
    + _entries("faults", [FAULT_DECIDE])
    + _entries(
        "transport.wire",
        [
            "repro.transport.wire.network:WireNetwork.send",
            "repro.transport.wire.network:WireNetwork.send_batch",
        ]
        + WIRE_CODEC,
    )
    + [
        # Every round trip's span is kept: their median is a metric.
        EntryPoint(WIRE_REQUEST, "transport.wire", keep_spans=True),
        EntryPoint(FRAME_READ, "transport.wire", _frame_in),
        EntryPoint(FRAME_WRITE, "transport.wire", _frame_out),
    ]
)

LAYERS = sorted({entry.layer for entry in ENTRY_POINTS} | {"driver"})

#: Returned for a metric whose entry points no longer exist in the program
#: (the result line carries numbers only, so ``null`` is spelled -1).
MISSING = -1.0


class Ledger:
    """Per-layer counts and self times of one traced round.

    ``aggregates`` maps entry name to ``calls/total_ns/self_ns/units`` (the
    generator's tracer); ``peer`` is the wire peer's report, whose layer self
    times are merged in and whose busy time is taken out of the generator's
    ``transport.wire`` self time, leaving the socket and scheduling wait.
    """

    def __init__(
        self,
        aggregates: Dict[str, Dict[str, int]],
        missing: List[str],
        ops: int,
        root_layer: str,
        peer: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.aggregates = aggregates
        self.missing = set(missing)
        self.ops = ops
        self.root_layer = root_layer
        self.peer = peer
        self._layer_of = {entry.name: entry.layer for entry in ENTRY_POINTS}

    # -- raw accessors ------------------------------------------------------------

    def _known(self, names: List[str]) -> List[str]:
        return [name for name in names if name not in self.missing]

    def per_op(self, names: List[str], field: str = "calls") -> float:
        """Sum of ``field`` over ``names`` per operation, peer included."""
        known = self._known(names)
        if not known:
            return MISSING
        total = sum(self.aggregates[name][field] for name in known)
        if self.peer is not None:
            total += sum(
                self.peer["aggregates"].get(name, {}).get(field, 0) for name in known
            )
        return total / self.ops

    def layer_missing(self, layer: str) -> bool:
        """True when the program no longer has any of the layer's entry points."""
        names = [name for name, owner in self._layer_of.items() if owner == layer]
        return bool(names) and not self._known(names)

    def self_ms(self, names: List[str]) -> float:
        value = self.per_op(names, "self_ns")
        return value if value == MISSING else value / 1e6

    # -- the ledger ---------------------------------------------------------------

    def layer_self_ms(self) -> Dict[str, float]:
        """Self time per layer per operation; sums to the traced op time."""
        totals = {layer: 0.0 for layer in LAYERS}
        for name, row in self.aggregates.items():
            layer = self._layer_of.get(name, self.root_layer)
            totals[layer] += row["self_ns"]
        if self.peer is not None:
            for name, row in self.peer["aggregates"].items():
                layer = self._layer_of.get(name)
                if layer is not None:
                    totals[layer] += row["self_ns"]
            # The generator waited inside its round trips while the peer
            # worked: move the peer's busy time out of the wire's self time
            # (what remains there is the wait) and give the peer's time
            # between its traced spans (its serve loop) to the wire layer.
            totals["transport.wire"] += self.peer["glue_ns"] - self.peer["busy_ns"]
        return {layer: value / self.ops / 1e6 for layer, value in totals.items()}

    def wire_wait_ms(self) -> float:
        if self.peer is None or WIRE_REQUEST in self.missing:
            return 0.0 if self.peer is None else MISSING
        waited = self.aggregates[WIRE_REQUEST]["total_ns"] - self.peer["busy_ns"]
        return waited / self.ops / 1e6

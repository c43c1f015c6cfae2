"""Write-ahead journal for coordination runs.

A crash mid-coordination must never silently lose a run: the proposer's
peers hold half-collected evidence and timers for a round that would
otherwise never settle.  The :class:`RunJournal` records each
:class:`~repro.core.sharing._CoordinationRun` phase transition *before its
side effects dispatch*, so a restarted interceptor can replay the journal
and either resume the run or deterministically abort it
(:meth:`Organisation.recover_runs`).

Three record kinds cover the run state machine:

* ``proposed`` -- written after the phase-1 proposal (and its origin
  evidence) is built but before the fan-out dispatches.  Carries the
  canonical proposal (spliced encode-once via :class:`repro.codec.Encoded`),
  the fan-out wave membership and the run kind.  A journal that ends here
  means the commit barrier was never passed: *no peer can have applied
  anything*, so recovery aborts the run and notifies the wave.
* ``committed`` -- written inside the commit barrier, after the run flipped
  to committed but before any outcome message leaves.  Carries everything
  needed to re-send the outcome fan-out verbatim (payload, attributes,
  recipients, the original per-recipient message ids so re-delivery
  deduplicates, and the signed ``NR_OUTCOME`` token).  A journal that ends
  here means peers may already hold the outcome, so recovery must *resume
  to completion* -- re-sending and re-applying -- never abort.
* ``settled`` -- written when the run resolves (completed, aborted or
  failed).  A settled run needs no recovery; :meth:`open_runs` skips it.

Records are keyed ``runjournal:{owner}:{run_id}:{phase}`` behind the
ordinary :class:`~repro.persistence.storage.StorageBackend` interface, so
the same backend factory that persists evidence across processes persists
run state (one durable write per phase transition, three per run).  Each
write commits the calling thread's storage step
(:mod:`repro.persistence.storage`): no journal edge without the evidence
stored before it, and none of that evidence later than its edge.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro import codec
from repro.errors import PersistenceError
from repro.persistence.storage import InMemoryBackend, StorageBackend, SteppedBackend, commit

PHASE_PROPOSED = "proposed"
PHASE_COMMITTED = "committed"
PHASE_SETTLED = "settled"

_PHASES = (PHASE_PROPOSED, PHASE_COMMITTED, PHASE_SETTLED)

#: Precedence when deriving a run's recovery phase from its records.
_PHASE_RANK = {phase: rank for rank, phase in enumerate(_PHASES)}


@dataclass(frozen=True)
class JournaledRun:
    """One run's journal, reduced to its furthest recorded phase.

    ``phase`` is the latest phase with a record; ``proposed``/``committed``/
    ``settled`` hold the decoded record payloads (``None`` where the run
    never reached that phase).
    """

    run_id: str
    phase: str
    proposed: Optional[Dict[str, Any]] = None
    committed: Optional[Dict[str, Any]] = None
    settled: Optional[Dict[str, Any]] = None

    @property
    def open(self) -> bool:
        """True while the run still needs recovery on restart."""
        return self.settled is None


class RunJournal:
    """Durable write-ahead record of in-flight coordination runs."""

    def __init__(self, owner: str, backend: Optional[StorageBackend] = None) -> None:
        self.owner = owner
        self._backend = SteppedBackend(backend or InMemoryBackend())
        self._lock = threading.RLock()

    # -- writing (one durable commit per phase transition) -------------------------

    def _key_for(self, run_id: str, phase: str) -> str:
        return f"runjournal:{self.owner}:{run_id}:{phase}"

    def _write(self, run_id: str, phase: str, record: Mapping[str, Any]) -> None:
        payload = {"run_id": run_id, "phase": phase, **record}
        with self._lock:
            self._backend.put(self._key_for(run_id, phase), codec.encode(payload))
        # A journal edge is durable when its record_* call returns, and with
        # it everything the step wrote before it: on a backend the owner's
        # stores share, one transaction whose last record is the edge.
        commit()

    def record_proposed(
        self,
        run_id: str,
        *,
        kind: str,
        object_id: str,
        proposer: str,
        peers: List[str],
        proposal: Any,
        deadline: Optional[float] = None,
    ) -> None:
        """Journal a run's phase-1 intent before the proposal fan-out leaves.

        ``proposal`` should be the run's canonical :class:`~repro.codec.Encoded`
        proposal so the journal write splices the already-computed bytes.
        """
        self._write(
            run_id,
            PHASE_PROPOSED,
            {
                "kind": kind,
                "object_id": object_id,
                "proposer": proposer,
                "peers": list(peers),
                "proposal": proposal,
                "deadline": deadline,
            },
        )

    def record_committed(
        self,
        run_id: str,
        *,
        payload: Any,
        attributes: Mapping[str, Any],
        recipients: List[str],
        message_ids: Mapping[str, str],
        step: int,
        nr_outcome: Any,
        apply: Mapping[str, Any],
    ) -> None:
        """Journal the commit-barrier decision before any outcome message leaves.

        Everything a restarted proposer needs to re-dispatch the outcome wave
        verbatim rides in this record: the canonical outcome ``payload`` and
        message ``attributes`` (both spliced when pre-encoded), the
        ``recipients`` and their original per-recipient ``message_ids`` (so a
        resent outcome deduplicates at peers that already processed it), the
        signed ``nr_outcome`` token, and the declarative ``apply`` spec for
        the local state change.
        """
        encoded_token = getattr(nr_outcome, "data_encoded", None)
        self._write(
            run_id,
            PHASE_COMMITTED,
            {
                "payload": payload,
                "attributes": dict(attributes),
                "recipients": list(recipients),
                "message_ids": dict(message_ids),
                "step": step,
                "nr_outcome": encoded_token() if callable(encoded_token) else nr_outcome,
                "apply": dict(apply),
            },
        )

    def record_settled(
        self, run_id: str, *, agreed: bool, reason: str = ""
    ) -> None:
        """Journal that the run resolved; recovery will skip it from now on."""
        self._write(run_id, PHASE_SETTLED, {"agreed": agreed, "reason": reason})

    # -- reading (recovery replay) ---------------------------------------------------

    def _prefix(self) -> str:
        return f"runjournal:{self.owner}:"

    def all_runs(self) -> Dict[str, JournaledRun]:
        """Decode every journaled run, keyed by run id.

        On a prefix-scan backend (SQLite) this is one indexed range query
        over the owner's ``runjournal:`` keyspace; on plain backends it
        filters ``keys()`` as before.
        """
        prefix = self._prefix()
        per_run: Dict[str, Dict[str, Dict[str, Any]]] = {}
        with self._lock:
            if self._backend.supports_prefix_scan:
                records = self._backend.scan(prefix)
            else:
                records = (
                    (key, self._backend.get(key))
                    for key in self._backend.keys()
                    if key.startswith(prefix)
                )
            for key, raw in records:
                if raw is None:
                    continue
                try:
                    record = codec.decode(raw)
                except (codec.CodecError, ValueError) as error:
                    raise PersistenceError(
                        f"corrupt run-journal record {key!r}: {error}"
                    ) from error
                phase = record.get("phase")
                run_id = record.get("run_id")
                if phase not in _PHASE_RANK or not run_id:
                    raise PersistenceError(
                        f"run-journal record {key!r} has no valid phase/run id"
                    )
                per_run.setdefault(run_id, {})[phase] = record
        runs: Dict[str, JournaledRun] = {}
        for run_id, records in per_run.items():
            phase = max(records, key=lambda name: _PHASE_RANK[name])
            runs[run_id] = JournaledRun(
                run_id=run_id,
                phase=phase,
                proposed=records.get(PHASE_PROPOSED),
                committed=records.get(PHASE_COMMITTED),
                settled=records.get(PHASE_SETTLED),
            )
        return runs

    def run(self, run_id: str) -> Optional[JournaledRun]:
        return self.all_runs().get(run_id)

    def open_runs(self) -> List[JournaledRun]:
        """Runs with no settled record, ordered by run id (deterministic replay)."""
        return sorted(
            (run for run in self.all_runs().values() if run.open),
            key=lambda run: run.run_id,
        )

    # -- pruning ---------------------------------------------------------------------

    def forget(self, run_id: str) -> None:
        """Drop every record of one run (post-recovery or audit-driven GC)."""
        with self._lock:
            for phase in _PHASES:
                self._backend.delete(self._key_for(run_id, phase))

    def prune_settled(self) -> int:
        """Drop the records of every settled run; returns how many runs went."""
        settled = [run.run_id for run in self.all_runs().values() if not run.open]
        for run_id in settled:
            self.forget(run_id)
        return len(settled)

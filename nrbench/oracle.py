"""Correctness oracle, run after every round's timed phase.

The paper's guarantee is what is checked: replicas at the same version hold
the same state, and any member's denial about an agreed update is refuted by
the evidence another member stored.  Each function returns a list of
human-readable failures; an empty list means the check passed.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Sequence

from repro import ClaimType, DisputeClaim, DisputeResolver
from repro import codec


def replica_report(organisation: Any, object_id: str) -> Dict[str, Any]:
    """Version and state digest of one replica (comparable across processes)."""
    state = organisation.shared_state(object_id)
    return {
        "party": organisation.uri,
        "version": organisation.shared_version(object_id),
        "digest": hashlib.sha256(codec.encode(state)).hexdigest(),
    }


def check_replicas(reports: Sequence[Dict[str, Any]], expected_version: int) -> List[str]:
    """Every replica is at ``expected_version`` with one common digest."""
    failures = [
        f"{report['party']} is at version {report['version']}, expected {expected_version}"
        for report in reports
        if report["version"] != expected_version
    ]
    digests = {report["digest"] for report in reports}
    if len(digests) != 1:
        failures.append(f"replicas hold {len(digests)} different states")
    return failures


def claim_against(member: str, proposer: str, run_id: str, object_id: str) -> DisputeClaim:
    """The denial ``member`` could raise about an agreed update."""
    claim_type = (
        ClaimType.DENIES_UPDATE_ORIGIN
        if member == proposer
        else ClaimType.DENIES_AGREED_STATE
    )
    return DisputeClaim(claim_type, run_id, member, object_id)


def unrefuted_denials(
    organisation: Any,
    run_ids: Sequence[str],
    proposer: str,
    members: Sequence[str],
    object_id: str,
) -> List[str]:
    """Denials by any member that ``organisation``'s stored evidence fails to refute."""
    resolver = DisputeResolver(organisation.evidence_verifier)
    failures = []
    for run_id in run_ids:
        for member in members:
            verdict = resolver.adjudicate_from_store(
                claim_against(member, proposer, run_id, object_id),
                organisation.evidence_store,
            )
            if not verdict.refuted:
                failures.append(
                    f"{organisation.uri} cannot refute {member}'s denial of run "
                    f"{run_id}: {verdict.reasoning}"
                )
    return failures

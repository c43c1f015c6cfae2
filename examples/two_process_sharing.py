#!/usr/bin/env python
"""Non-repudiable information sharing between two OS processes.

Every other example simulates the network inside one interpreter.  This one
does what the paper's middleware was built for: two organisations whose
trusted interceptors live in *different processes*, exchanging protocol
messages over real TCP sockets through the wire transport
(:mod:`repro.transport.wire`).

The script plays both roles.  Run without arguments it is organisation A's
process: it starts a wire node, spawns organisation B's process (this same
file with ``--peer``), exchanges credentials over the socket, proposes an
update to a shared document, and verifies the non-repudiation evidence it
holds.  The peer process independently validates the proposal, applies the
agreed state and verifies the evidence *it* holds -- so after the run, both
sides can prove origin and agreement of the update to a third party without
trusting each other.

Both processes configure their domain through the ``storage="sqlite:..."``
profile pointing at the *same* embedded-KV file: each organisation's
evidence, audit and journal records live under its own key prefix, so one
store serves every process and a later reopen sees the evidence without
rebuilding any in-memory index.

Both processes also run with the observability plane on.  The trace context
crosses the socket inside the call envelope, so when B ships its spans back
to A the two halves assemble into one connected span tree for the run --
proposer fan-out, B's remote handlers, commit and outcome delivery -- which
A renders alongside Prometheus-text and JSON metric exports.

Run with::

    python examples/two_process_sharing.py
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro import (
    DomainConfig,
    DurabilityConfig,
    TokenType,
    TransportConfig,
    TrustDomain,
)
from repro.core.config import ObservabilityConfig
from repro.observability import runtime as observability
from repro.observability.exporters import (
    metrics_snapshot,
    render_json,
    render_prometheus,
)
from repro.observability.tracing import render_tree
from repro.transport.wire import WireTransport

ORG_A = "urn:org:design-house"
ORG_B = "urn:org:fabrication"
PARTIES = [ORG_A, ORG_B]
OBJECT_ID = "component-spec"
INITIAL_STATE = {"material": "unspecified", "tolerance_mm": None, "revision": 0}
AGREED_STATE = {"material": "Ti-6Al-4V", "tolerance_mm": 0.05, "revision": 1}


def domain_config(transport: WireTransport, directory: str) -> DomainConfig:
    """Both processes share one SQLite evidence file under the run directory."""
    return DomainConfig(
        scheme="hmac",
        transport=TransportConfig(wire=transport),
        durability=DurabilityConfig(
            storage=f"sqlite:{Path(directory) / 'evidence.db'}"
        ),
        observability=ObservabilityConfig(),
    )


def verify_held_evidence(organisation, run_id):
    """Re-verify every token this organisation stored for the run."""
    from repro.core.evidence import EvidenceToken

    verified = []
    for record in organisation.evidence_store.evidence_for_run(run_id):
        token = EvidenceToken.from_stored(record)
        organisation.evidence_verifier.require_valid(token, expected_run_id=run_id)
        verified.append((record.token_type, record.role))
    return sorted(verified)


# -- organisation B's process --------------------------------------------------


def peer_main(directory: str) -> None:
    a_endpoint = json.loads((Path(directory) / "org-a.json").read_text())
    transport = WireTransport(
        local_parties=[ORG_B],
        peers={ORG_A: (a_endpoint["host"], a_endpoint["port"])},
    )
    # create() exchanges credentials with A's process over the socket before
    # returning: B can then verify A's signatures, and vice versa.
    domain = TrustDomain.create(
        PARTIES, config=domain_config(transport, directory)
    )
    domain.share_object(OBJECT_ID, dict(INITIAL_STATE))
    org_b = domain.organisation(ORG_B)
    (Path(directory) / "org-b-ready").touch()

    # B's interceptor now serves A's proposal from the wire; wait until the
    # outcome evidence lands, then verify what *this* side holds.
    deadline = time.monotonic() + 60
    run_ids = []
    while time.monotonic() < deadline:
        run_ids = org_b.evidence_store.run_ids()
        if run_ids and org_b.evidence_store.tokens_of_type(
            run_ids[0], TokenType.NR_OUTCOME.value
        ):
            break
        time.sleep(0.05)
    assert run_ids, "no protocol run ever reached organisation B"
    run_id = run_ids[0]
    assert org_b.shared_state(OBJECT_ID) == AGREED_STATE

    result = {
        "run_id": run_id,
        "state": org_b.shared_state(OBJECT_ID),
        "verified_evidence": verify_held_evidence(org_b, run_id),
        # B's half of the distributed trace: the handler spans this process
        # recorded for the run, for A to merge into the full tree.
        "spans": observability.STATE.tracing.spans(run_id),
    }
    (Path(directory) / "org-b-result.json").write_text(json.dumps(result))
    transport.close()


# -- organisation A's process (the entry point) --------------------------------


def main() -> None:
    directory = tempfile.mkdtemp(prefix="two-process-sharing-")
    transport = WireTransport(
        local_parties=[ORG_A],
        await_remote_credentials=False,  # B introduces itself when it starts
    )
    domain = TrustDomain.create(PARTIES, config=domain_config(transport, directory))
    (Path(directory) / "org-a.json").write_text(
        json.dumps({"host": transport.host, "port": transport.port})
    )
    print(f"organisation A listening on {transport.host}:{transport.port}")

    peer = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--peer", "--dir", directory]
    )
    try:
        transport.wait_for_party(ORG_B, timeout=30)
        print("organisation B introduced itself from its own process")
        domain.share_object(OBJECT_ID, dict(INITIAL_STATE))
        deadline = time.monotonic() + 60
        while not (Path(directory) / "org-b-ready").exists():
            assert peer.poll() is None, "organisation B's process died during setup"
            assert time.monotonic() < deadline, "organisation B never became ready"
            time.sleep(0.05)

        org_a = domain.organisation(ORG_A)
        outcome = org_a.propose_update(OBJECT_ID, dict(AGREED_STATE))
        assert outcome.agreed, outcome.reason
        print(f"update agreed across processes (run {outcome.run_id})")
        print(f"  replica at A: {org_a.shared_state(OBJECT_ID)}")

        for token_type, role in verify_held_evidence(org_a, outcome.run_id):
            print(f"  A holds verified evidence: {token_type} ({role})")

        assert peer.wait(timeout=60) == 0, "organisation B's process failed"
        peer_result = json.loads(
            (Path(directory) / "org-b-result.json").read_text()
        )
        assert peer_result["run_id"] == outcome.run_id
        assert peer_result["state"] == AGREED_STATE
        print(f"  replica at B: {peer_result['state']}")
        for token_type, role in peer_result["verified_evidence"]:
            print(f"  B holds verified evidence: {token_type} ({role})")
        print("non-repudiation evidence verified on both sides of the socket")

        # Both processes wrote into the same embedded-KV file, each under its
        # own key prefix: the store outlives both interpreters, and a reopen
        # scans only what it queries instead of rebuilding an index.
        from repro.persistence import SQLiteBackend

        with SQLiteBackend(str(Path(directory) / "evidence.db")) as store:
            for uri in PARTIES:
                records, size = store.scan_stats(f"evidence:{uri}:")
                print(f"  shared store: {records} evidence records"
                      f" ({size} bytes) under evidence:{uri}:")
                assert records > 0

        # The run's trace crossed the socket with it: merging A's spans with
        # the ones B shipped back yields one connected tree for the run --
        # B's handlers parent to the contexts A's messages carried over TCP.
        merged = observability.STATE.tracing.spans(outcome.run_id) + [
            span for span in peer_result["spans"]
            if span["trace_id"] == outcome.run_id
        ]
        print("\ndistributed span tree of the cross-process update:")
        print(render_tree(merged, outcome.run_id))
        prometheus = render_prometheus(metrics_snapshot())
        print("metrics (Prometheus text, excerpt):")
        for line in prometheus.splitlines():
            if line.startswith("repro_wire_round_trip_seconds_count") or (
                line.startswith("repro_run_duration_seconds_")
                and "bucket" not in line
            ):
                print(f"  {line}")
        metrics_json = json.loads(render_json())
        print("metrics (JSON): histograms exported ="
              f" {len(metrics_json['histograms'])}")
    finally:
        if peer.poll() is None:
            peer.kill()
        transport.close()
        import shutil

        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--peer", action="store_true")
    parser.add_argument("--dir")
    arguments = parser.parse_args()
    if arguments.peer:
        peer_main(arguments.dir)
    else:
        main()

"""Kill-and-restart chaos tests for durable runs over the real wire.

The in-process recovery suite (``tests/integration/test_durable_recovery.py``)
injects crashes as exceptions; here the crash is real: a proposer process is
``SIGKILL``-ed mid-coordination over TCP sockets, restarted from nothing but
its durable pieces (keypair file, run-journal directory, evidence directory),
and must replay its journal and converge with the responders it abandoned.

The property under test is *converge, never diverge*: whatever the fault
schedule, after recovery every replica holds the same state and version, the
two responders hold identical evidence multisets for the crashed run, and no
scheduler timers leak.  A proposer killed before the commit barrier recovers
by aborting (responders are told, nothing applies anywhere); killed after it,
by resuming (everyone applies).  A proposer that never comes back at all is
garbage-collected by the responders' proposal-age expiry timers.

The fault schedule is seeded (``CHAOS_SEEDS`` environment variable, comma
separated) so CI can fan out deterministic variations.  ``CHAOS_STORAGE``
(``file``, the default, or ``sqlite``) selects the proposer's persistent
storage profile: on ``sqlite`` the step a journal barrier commits is one
transaction, and that is what the kill lands on.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

PROPOSER = "urn:org:proposer"
RESPONDERS = ["urn:org:responder-b", "urn:org:responder-c"]
PARTIES = [PROPOSER] + RESPONDERS
OBJECT_ID = "shared-doc"
INITIAL_STATE = {"revision": 0, "body": "draft"}

REPO_ROOT = Path(__file__).resolve().parents[2]
KILL_STAGES = ["after-journal-proposed", "after-journal-committed"]
SEEDS = [int(seed) for seed in os.environ.get("CHAOS_SEEDS", "7").split(",")]
STORAGE = os.environ.get("CHAOS_STORAGE") or "file"


def crash_state(seed: int) -> dict:
    return {"revision": 1, "body": f"crashed-while-proposing-{seed}"}


def follow_up_count(seed: int) -> int:
    return random.Random(seed).randint(1, 3)


def follow_up_state(seed: int, index: int, base_revision: int) -> dict:
    return {"revision": base_revision + index, "body": f"follow-up-{seed}-{index}"}


# -- the proposer process ------------------------------------------------------
#
# This module doubles as the proposer's entry point (the pytest process hosts
# the responders).  The proposer persists its identity and its durable stores
# under --dir, so a relaunch with --phase recover is a true restart: same key
# (the responders' TOFU pinning requires it), same journal, same evidence,
# provisioned by one ``storage=`` profile under --dir.


def _proposer_keypair(directory: Path):
    from repro.crypto.keys import KeyPair, PrivateKey, PublicKey
    from repro.crypto.signature import get_scheme

    key_path = directory / "proposer-keypair.json"
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


def _proposer_domain(directory: Path):
    from repro import TrustDomain
    from repro.transport.wire import WireTransport

    endpoint = json.loads((directory / "responders.json").read_text())
    keypair = _proposer_keypair(directory)
    transport = WireTransport(
        local_parties=[PROPOSER],
        peers={uri: (endpoint["host"], endpoint["port"]) for uri in RESPONDERS},
    )
    domain = TrustDomain.create(
        PARTIES,
        transport=transport,
        scheme="hmac",
        durable_runs=True,
        storage=f"{STORAGE}:{directory / 'proposer-store'}",
        keypair_factory=lambda uri: keypair,
    )
    domain.share_object(OBJECT_ID, dict(INITIAL_STATE))
    return domain, transport


def proposer_run(directory: Path, stage: str, seed: int) -> None:
    """First life: arm the SIGKILL injector and propose into it."""
    from repro.core.sharing import set_run_fault_injector

    domain, transport = _proposer_domain(directory)
    organisation = domain.organisation(PROPOSER)

    def die_at(at_stage, run):
        if at_stage == stage:
            os.kill(os.getpid(), signal.SIGKILL)

    set_run_fault_injector(die_at)
    organisation.propose_update(OBJECT_ID, crash_state(seed))
    # Unreachable for every KILL_STAGES value; guard against silent no-kill.
    transport.close()
    raise AssertionError(f"fault injector never fired for stage {stage!r}")


def proposer_recover(directory: Path, seed: int) -> None:
    """Second life: replay the journal, then keep working."""
    domain, transport = _proposer_domain(directory)
    organisation = domain.organisation(PROPOSER)
    actions = organisation.recover_runs()

    follow_ups = follow_up_count(seed)
    for index in range(1, follow_ups + 1):
        base = organisation.controller.get_version(OBJECT_ID)
        outcome = organisation.propose_update(
            OBJECT_ID, follow_up_state(seed, index, base)
        )
        assert outcome.agreed, outcome.reason

    (run_id,) = actions
    result = {
        "actions": actions,
        "version": organisation.controller.get_version(OBJECT_ID),
        "state": organisation.controller.get_state(OBJECT_ID),
        "evidence": sorted(
            (record.token_type, record.role)
            for record in organisation.evidence_for_run(run_id)
        ),
        "open_after_recovery": [
            record.run_id
            for record in organisation.controller.run_journal.open_runs()
        ],
    }
    (directory / "recover-result.json").write_text(json.dumps(result))
    transport.close()


def _main() -> None:
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--phase", choices=["run", "recover"], required=True)
    parser.add_argument("--stage", default="")
    parser.add_argument("--seed", type=int, default=0)
    arguments = parser.parse_args()
    directory = Path(arguments.dir)
    if arguments.phase == "run":
        proposer_run(directory, arguments.stage, arguments.seed)
    else:
        proposer_recover(directory, arguments.seed)


# -- the responder (pytest) process --------------------------------------------


class ResponderHost:
    """Both responders, hosted in the test process on one wire node."""

    def __init__(self, directory: Path, orphan_run_timeout: float = 30.0):
        from repro import TrustDomain
        from repro.transport.wire import WireTransport

        self.directory = directory
        self.transport = WireTransport(
            local_parties=list(RESPONDERS),
            await_remote_credentials=False,  # the proposer introduces itself
        )
        self.domain = TrustDomain.create(
            PARTIES,
            transport=self.transport,
            scheme="hmac",
            durable_runs=True,
            orphan_run_timeout=orphan_run_timeout,
        )
        self.domain.share_object(OBJECT_ID, dict(INITIAL_STATE))
        (directory / "responders.json").write_text(
            json.dumps({"host": self.transport.host, "port": self.transport.port})
        )

    def organisations(self):
        return [self.domain.organisation(uri) for uri in RESPONDERS]

    def versions(self):
        return [
            org.controller.get_version(OBJECT_ID) for org in self.organisations()
        ]

    def states(self):
        return [org.controller.get_state(OBJECT_ID) for org in self.organisations()]

    def evidence_summaries(self, run_id):
        return [
            Counter(
                (record.token_type, record.role)
                for record in org.evidence_for_run(run_id)
            )
            for org in self.organisations()
        ]

    def audit_events(self, run_id):
        return [
            {record.details.get("event") for record in org.audit_records(subject=run_id)}
            for org in self.organisations()
        ]

    def spawn_proposer(self, phase: str, stage: str = "", seed: int = 0):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        return subprocess.Popen(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--dir",
                str(self.directory),
                "--phase",
                phase,
                "--stage",
                stage,
                "--seed",
                str(seed),
            ],
            env=env,
        )

    def wait_until(self, predicate, timeout: float = 30.0, message: str = ""):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return
            time.sleep(0.05)
        raise AssertionError(message or "condition never reached on responders")

    def close(self):
        self.transport.close()


@pytest.fixture
def responders(tmp_path):
    host = ResponderHost(tmp_path)
    yield host
    host.close()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stage", KILL_STAGES)
def test_sigkilled_proposer_restarts_and_converges(responders, stage, seed):
    # First life: the proposer process SIGKILLs itself at the journal stage.
    first = responders.spawn_proposer("run", stage=stage, seed=seed)
    assert first.wait(timeout=60) == -signal.SIGKILL

    # Second life: a fresh process over the same durable directory.
    second = responders.spawn_proposer("recover", seed=seed)
    assert second.wait(timeout=60) == 0
    result = json.loads((responders.directory / "recover-result.json").read_text())

    expected_action = (
        "aborted" if stage == "after-journal-proposed" else "resumed"
    )
    (run_id,), (action,) = result["actions"].keys(), result["actions"].values()
    assert action == expected_action
    assert result["open_after_recovery"] == []

    # Convergence: every replica reaches the proposer's final version/state.
    follow_ups = follow_up_count(seed)
    expected_version = follow_ups + (1 if expected_action == "resumed" else 0)
    assert result["version"] == expected_version
    responders.wait_until(
        lambda: responders.versions() == [expected_version] * 2,
        message=f"responders never reached version {expected_version}: "
        f"{responders.versions()}",
    )
    assert responders.states() == [result["state"]] * 2

    # Evidential convergence: both responders hold identical (non-empty on
    # resume) evidence multisets for the crashed run, and neither diverges.
    summary_b, summary_c = responders.evidence_summaries(run_id)
    assert summary_b == summary_c
    if expected_action == "resumed":
        assert summary_b
        # The restarted proposer holds the full proposer-side set.
        proposer_evidence = Counter(tuple(pair) for pair in result["evidence"])
        assert proposer_evidence[("nro-update", "generated")] == 1
        assert proposer_evidence[("nr-outcome", "generated")] == 1
        assert proposer_evidence[("nr-decision", "received")] == len(RESPONDERS)
    else:
        # Aborted before dispatch: responders saw nothing but the notice.
        responders.wait_until(
            lambda: all(
                "run-abort-received" in events
                for events in responders.audit_events(run_id)
            ),
            message="abort notices never reached the responders",
        )

    # No timer leaks on the responder scheduler (orphan watches armed while
    # the proposer was dead were cancelled by the recovery wave).
    responders.wait_until(
        lambda: responders.domain.retry_scheduler.pending_timers() == 0,
        message="responder scheduler still holds timers after convergence",
    )
    for org in responders.organisations():
        assert org.controller.pending_orphan_watches() == []


def test_proposer_that_never_returns_is_expired_by_responders(tmp_path):
    host = ResponderHost(tmp_path, orphan_run_timeout=1.5)
    try:
        first = host.spawn_proposer(
            "run", stage="after-journal-committed", seed=SEEDS[0]
        )
        assert first.wait(timeout=60) == -signal.SIGKILL
        # Both responders decided and armed their proposal-age expiry clocks.
        host.wait_until(
            lambda: all(
                org.controller.pending_orphan_watches()
                for org in host.organisations()
            ),
            message="responders never armed orphan watches",
        )
        (run_id,) = host.organisations()[0].controller.pending_orphan_watches()

        # The proposer never comes back; drive the scheduler past the timeout.
        scheduler = host.domain.retry_scheduler
        scheduler.drive_until(
            lambda: not any(
                org.controller.pending_orphan_watches()
                for org in host.organisations()
            )
        )
        for org in host.organisations():
            run = org.controller._handler.runs.get(run_id)  # noqa: SLF001
            assert run is not None and run.finished
            events = {
                record.details.get("event")
                for record in org.audit_records(subject=run_id)
            }
            assert "orphan-run-expired" in events
        # Nothing applied, nothing leaked.
        assert host.versions() == [0, 0]
        assert scheduler.pending_timers() == 0
    finally:
        host.close()


if __name__ == "__main__":
    _main()

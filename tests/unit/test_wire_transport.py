"""Unit tests for the socket-backed wire transport.

Covers the layers bottom-up -- framing, the revival codec, the address
book, pooled connections with reconnect -- and then the
:class:`~repro.transport.wire.WireNetwork` surface contract the retry and
dispatch engines rely on: failure taxonomy (retryable vs permanent vs
handler-raised), sender-side statistics, batch semantics and teardown.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro import codec
from repro.clock import SimulatedClock
from repro.core.evidence import TokenType
from repro.core.messages import B2BProtocolMessage
from repro.core.trust_domain import DeploymentStyle, TrustDomain
from repro.errors import (
    DeliveryError,
    ProtocolError,
    RemoteInvocationError,
    UnknownEndpointError,
)
from repro.faults import FaultPlan, FaultRule
from repro.transport.delivery import ReliableChannel, RetryPolicy
from repro.transport.network import FaultModel, SimulatedNetwork
from repro.transport.wire import (
    ConnectionClosed,
    FramingError,
    PeerAddressBook,
    WireNetwork,
    WireTransport,
    decode_body,
    encode_body,
    read_frame,
    revive_error,
    wirecodec,
    write_frame,
)


# -- framing -------------------------------------------------------------------


class TestFraming:
    def test_roundtrip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            for payload in (b"", b"x", b"a" * 70000):
                write_frame(left, payload)
                assert read_frame(right) == payload
        finally:
            left.close()
            right.close()

    def test_frames_keep_boundaries(self):
        left, right = socket.socketpair()
        try:
            write_frame(left, b"first")
            write_frame(left, b"second")
            assert read_frame(right) == b"first"
            assert read_frame(right) == b"second"
        finally:
            left.close()
            right.close()

    def test_oversized_write_rejected(self):
        left, right = socket.socketpair()
        try:
            with pytest.raises(FramingError):
                write_frame(left, b"x" * (16 * 1024 * 1024 + 1))
        finally:
            left.close()
            right.close()

    def test_oversized_announced_length_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall((17 * 1024 * 1024).to_bytes(4, "big"))
            with pytest.raises(FramingError):
                read_frame(right)
        finally:
            left.close()
            right.close()

    def test_eof_mid_frame_is_connection_closed(self):
        left, right = socket.socketpair()
        try:
            left.sendall((100).to_bytes(4, "big") + b"partial")
            left.close()
            with pytest.raises(ConnectionClosed):
                read_frame(right)
        finally:
            right.close()


# -- wire codec ----------------------------------------------------------------


class TestWireCodec:
    def test_protocol_message_revives_with_tokens(self, domain_factory):
        domain = domain_factory(2, scheme="hmac")
        org = domain.organisation("urn:org:party0")
        token = org.evidence_builder.build(
            token_type=TokenType.NRO_UPDATE,
            run_id="run-1",
            step=1,
            recipient="urn:org:party1",
            payload={"v": 1},
        )
        message = B2BProtocolMessage(
            run_id="run-1",
            protocol="nr-sharing",
            step=1,
            sender="urn:org:party0",
            recipient="urn:org:party1",
            payload={"proposed_state": {"v": 1}, "blob": b"\x00\x01"},
            tokens=[token],
        )
        body = encode_body({"kind": "call", "payload": {"args": [message]}})
        revived = decode_body(body)["payload"]["args"][0]
        assert isinstance(revived, B2BProtocolMessage)
        assert revived.run_id == "run-1"
        assert revived.payload["blob"] == b"\x00\x01"
        assert revived.tokens[0].token_id == token.token_id
        # The canonical encoding (and with it every signed digest) must
        # survive the hop byte-for-byte.
        assert revived.tokens[0].data_encoded().text == token.data_encoded().text
        assert revived.data_encoded().text == message.data_encoded().text

    def test_plain_containers_and_tagged_values_roundtrip(self):
        envelope = {
            "bytes": b"\xff\x00",
            "set": {3, 1, 2},
            "nested": [{"a": None, "b": 1.5}],
        }
        revived = decode_body(encode_body(envelope))
        assert revived["bytes"] == b"\xff\x00"
        assert revived["set"] == {1, 2, 3}
        assert revived["nested"] == [{"a": None, "b": 1.5}]

    def test_unregistered_object_decays_to_plain_data(self):
        class AppValue:
            def to_dict(self):
                return {"field": 7}

        revived = decode_body(encode_body({"value": AppValue()}))
        assert revived["value"] == {"field": 7}

    def test_unencodable_content_raises_wire_codec_error(self):
        with pytest.raises(wirecodec.WireCodecError):
            encode_body({"value": object()})

    def test_error_revival_keeps_retry_taxonomy(self):
        assert isinstance(revive_error("DeliveryError", "x"), DeliveryError)
        assert isinstance(
            revive_error("UnknownEndpointError", "x"), UnknownEndpointError
        )
        assert isinstance(revive_error("ValueError", "x"), ValueError)
        unknown = revive_error("SomethingOdd", "boom")
        assert isinstance(unknown, RemoteInvocationError)
        assert "SomethingOdd" in str(unknown)


# -- peer address book ---------------------------------------------------------


class TestPeerAddressBook:
    def test_resolve_and_replace(self):
        book = PeerAddressBook({"urn:a": ("127.0.0.1", 1234)})
        assert book.resolve("urn:a") == ("127.0.0.1", 1234)
        book.add("urn:a", "127.0.0.1", 4321)
        assert book.resolve("urn:a") == ("127.0.0.1", 4321)
        assert book.addresses() == ["urn:a"]

    def test_unknown_address_is_permanent_failure(self):
        with pytest.raises(UnknownEndpointError):
            PeerAddressBook().resolve("urn:nowhere")

    def test_rejects_bad_entries(self):
        book = PeerAddressBook()
        with pytest.raises(ValueError):
            book.add("", "127.0.0.1", 1234)
        with pytest.raises(ValueError):
            book.add("urn:a", "127.0.0.1", 0)


# -- wire network --------------------------------------------------------------


@pytest.fixture
def wire_pair():
    """Two connected wire nodes: ``a`` knows how to reach ``b``'s endpoints."""
    b = WireNetwork(clock=SimulatedClock())
    a = WireNetwork(clock=SimulatedClock())
    nodes = [a, b]
    yield a, b
    for node in nodes:
        node.close()


def _link(a: WireNetwork, b: WireNetwork, address: str) -> None:
    a.address_book.add(address, b.host, b.port)


class TestWireNetwork:
    def test_remote_send_returns_handler_reply(self, wire_pair):
        a, b = wire_pair
        b.register("urn:echo", lambda message: {"echo": message.payload})
        _link(a, b, "urn:echo")
        reply = a.send("urn:src", "urn:echo", "op", {"n": 1})
        assert reply == {"echo": {"n": 1}}
        assert a.statistics.messages_sent == 1
        assert a.statistics.messages_delivered == 1
        assert a.statistics.bytes_delivered > 0
        # Receiving is not accounted: statistics stay sender-side so that
        # summing nodes reproduces the simulator's global counters.
        assert b.statistics.messages_sent == 0

    def test_local_endpoints_bypass_the_socket(self, wire_pair):
        a, _b = wire_pair
        a.register("urn:local", lambda message: "here")
        assert a.send("urn:src", "urn:local", "op", None) == "here"
        assert a.pool.requests_sent == 0
        assert a.statistics.messages_delivered == 1

    def test_unknown_destination_is_permanent(self, wire_pair):
        a, _b = wire_pair
        with pytest.raises(UnknownEndpointError):
            a.send("urn:src", "urn:nowhere", "op", None)
        assert a.statistics.messages_dropped == 1

    def test_unregistered_remote_endpoint_is_permanent(self, wire_pair):
        a, b = wire_pair
        _link(a, b, "urn:ghost")
        with pytest.raises(UnknownEndpointError):
            a.send("urn:src", "urn:ghost", "op", None)
        assert a.statistics.messages_dropped == 1

    def test_offline_remote_endpoint_is_retryable_and_recovers(self, wire_pair):
        a, b = wire_pair
        b.register("urn:svc", lambda message: "ok")
        _link(a, b, "urn:svc")
        b.set_online("urn:svc", False)
        with pytest.raises(DeliveryError):
            a.send("urn:src", "urn:svc", "op", None)
        assert a.statistics.messages_dropped == 1
        b.set_online("urn:svc", True)
        assert a.send("urn:src", "urn:svc", "op", None) == "ok"

    def test_handler_exception_counts_delivered_and_revives(self, wire_pair):
        a, b = wire_pair

        def failing(message):
            raise ValueError("intentional")

        b.register("urn:svc", failing)
        _link(a, b, "urn:svc")
        with pytest.raises(ValueError, match="intentional"):
            a.send("urn:src", "urn:svc", "op", None)
        assert a.statistics.messages_delivered == 1
        assert a.statistics.messages_dropped == 0

    def test_send_batch_isolates_entries(self, wire_pair):
        a, b = wire_pair
        b.register("urn:good", lambda message: message.payload * 2)
        a.register("urn:near", lambda message: "local")
        _link(a, b, "urn:good")
        results = a.send_batch(
            "urn:src",
            [
                ("urn:good", "op", 21),
                ("urn:nowhere", "op", None),
                ("urn:near", "op", None),
            ],
        )
        assert results[0].result == 42
        assert isinstance(results[1].error, UnknownEndpointError)
        assert results[2].result == "local"
        assert a.statistics.messages_sent == 3
        assert a.statistics.messages_delivered == 2
        assert a.statistics.messages_dropped == 1

    def test_killed_connection_is_retryable_and_reconnects(self, wire_pair):
        a, b = wire_pair
        b.register("urn:svc", lambda message: "ok")
        _link(a, b, "urn:svc")
        assert a.send("urn:src", "urn:svc", "op", None) == "ok"
        assert a.pool.live_connections() == 1
        a.pool.kill()
        assert a.pool.live_connections() == 0
        # The reliable channel's retry machinery recovers transparently.
        channel = ReliableChannel(
            a, "urn:src", RetryPolicy(max_attempts=4, backoff_seconds=0.0)
        )
        assert channel.send("urn:svc", "op", None) == "ok"
        assert a.pool.live_connections() == 1

    def test_send_scheduled_recovers_over_the_wire(self, wire_pair):
        a, b = wire_pair
        b.register("urn:svc", lambda message: "ok")
        _link(a, b, "urn:svc")
        a.pool.kill()
        channel = ReliableChannel(
            a, "urn:src", RetryPolicy(max_attempts=4, backoff_seconds=0.01)
        )
        future = channel.send_scheduled("urn:svc", "op", None)
        assert future.result(timeout=30) == "ok"
        assert a.retry_scheduler.pending_timers() == 0

    def test_stopped_peer_exhausts_retry_budget(self, wire_pair):
        a, b = wire_pair
        b.register("urn:svc", lambda message: "ok")
        _link(a, b, "urn:svc")
        b.close()
        channel = ReliableChannel(
            a, "urn:src", RetryPolicy(max_attempts=3, backoff_seconds=0.0)
        )
        with pytest.raises(DeliveryError, match="after 3 attempts"):
            channel.send("urn:svc", "op", None)
        assert channel.attempts_made == 3
        assert a.statistics.messages_dropped == 3

    def test_concurrent_requests_share_the_pool(self, wire_pair):
        a, b = wire_pair
        barrier = threading.Barrier(4, timeout=10)

        def slowish(message):
            barrier.wait()  # all four requests must be in flight at once
            return message.payload

        b.register("urn:svc", slowish)
        _link(a, b, "urn:svc")
        results = []

        def call(n):
            results.append(a.send("urn:src", "urn:svc", "op", n))

        threads = [threading.Thread(target=call, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(results) == [0, 1, 2, 3]
        assert a.pool.live_connections() == 4

    def test_oversized_frame_is_permanent_not_retried(self, wire_pair):
        a, b = wire_pair
        b.register("urn:svc", lambda message: "ok")
        _link(a, b, "urn:svc")
        channel = ReliableChannel(
            a, "urn:src", RetryPolicy(max_attempts=5, backoff_seconds=0.0)
        )
        huge = "x" * (17 * 1024 * 1024)  # beyond the 16 MiB frame bound
        # Size violations are input-determined: one attempt, no retry burn.
        with pytest.raises(FramingError):
            channel.send("urn:svc", "op", huge)
        assert channel.attempts_made == 1
        assert a.statistics.messages_dropped == 1

    def test_oversized_reply_is_delivered_but_failed(self, wire_pair):
        a, b = wire_pair
        b.register("urn:svc", lambda message: "y" * (17 * 1024 * 1024))
        _link(a, b, "urn:svc")
        # The serving side reports the size violation instead of killing the
        # connection (which would re-invoke the handler on every retry).
        with pytest.raises(RemoteInvocationError, match="frame limit"):
            a.send("urn:src", "urn:svc", "op", None)
        assert a.statistics.messages_delivered == 1
        assert a.pool.live_connections() == 1  # connection survived

    def test_system_requests_are_not_accounted(self, wire_pair):
        a, b = wire_pair
        b.register_system_handler("ping", lambda payload: {"pong": payload})
        assert a.system_request((b.host, b.port), "ping", 7) == {"pong": 7}
        assert a.statistics.messages_sent == 0
        with pytest.raises(UnknownEndpointError):
            a.system_request((b.host, b.port), "no-such-op", None)

    def test_close_is_idempotent_and_stops_serving(self, wire_pair):
        a, b = wire_pair
        b.register("urn:svc", lambda message: "ok")
        _link(a, b, "urn:svc")
        assert a.send("urn:src", "urn:svc", "op", None) == "ok"
        b.close()
        b.close()
        with pytest.raises(DeliveryError):
            a.send("urn:src", "urn:svc", "op", None)


# -- wire transport / trust domain integration ---------------------------------


URIS = ["urn:org:wa", "urn:org:wb", "urn:org:wc"]


class TestWireTrustDomain:
    def test_introduction_order_is_irrelevant(self):
        # The hub learns its spoke *before* the spoke's organisations exist
        # and vice versa: buffered credentials apply when publication
        # happens, so create/introduce can interleave freely.
        with WireTransport(
            local_parties=[URIS[0]],
            await_remote_credentials=False,
            clock=SimulatedClock(),
        ) as hub, WireTransport(
            local_parties=URIS[1:],
            await_remote_credentials=False,
            clock=SimulatedClock(),
        ) as spoke:
            hub_domain = TrustDomain.create(URIS, transport=hub, scheme="hmac")
            # Introduce before the spoke has built anything: hub gets
            # nothing back yet, spoke buffers the hub's credentials.
            spoke.introduce_to(hub.host, hub.port)
            spoke_domain = TrustDomain.create(URIS, transport=spoke, scheme="hmac")
            # Second introduction completes the exchange in both directions.
            spoke.introduce_to(hub.host, hub.port)
            hub.wait_for_party(URIS[1], timeout=5)
            assert set(hub.known_parties()) == set(URIS)
            assert set(spoke.known_parties()) == set(URIS)

            hub_domain.share_object("doc", {"v": 0})
            spoke_domain.share_object("doc", {"v": 0})
            outcome = hub_domain.organisation(URIS[0]).propose_update(
                "doc", {"v": 1}
            )
            assert outcome.agreed, outcome.reason
            assert spoke_domain.organisation(URIS[1]).shared_state("doc") == {"v": 1}

    def test_exchange_blocks_until_peer_publishes(self):
        clock = SimulatedClock()
        with WireTransport(
            local_parties=[URIS[0]],
            await_remote_credentials=False,
            clock=clock,
        ) as hub:
            TrustDomain.create(URIS, transport=hub, scheme="hmac")

            failures = []

            def spoke_process():
                try:
                    with WireTransport(
                        local_parties=URIS[1:],
                        peers={URIS[0]: (hub.host, hub.port)},
                        clock=SimulatedClock(),
                    ) as spoke:
                        TrustDomain.create(URIS, transport=spoke, scheme="hmac")
                        assert set(spoke.known_parties()) == set(URIS)
                except Exception as error:  # noqa: BLE001 - surfaced below
                    failures.append(error)

            # exchange() runs inside create() and must converge while the
            # hub is concurrently serving.
            worker = threading.Thread(target=spoke_process)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
            assert not failures, failures
            hub.wait_for_party(URIS[2], timeout=5)

    def test_conflicting_reintroduction_is_refused(self):
        # Trust-on-FIRST-use: once a party's key is pinned, an introduction
        # claiming a different key for the same party (a substitution
        # attempt) must be rejected, not silently re-pinned.
        with WireTransport(
            local_parties=[URIS[0]],
            await_remote_credentials=False,
            clock=SimulatedClock(),
        ) as ta, WireTransport(
            local_parties=[URIS[1]],
            await_remote_credentials=False,
            clock=SimulatedClock(),
        ) as tb:
            da = TrustDomain.create(URIS[:2], transport=ta, scheme="hmac")
            TrustDomain.create(URIS[:2], transport=tb, scheme="hmac")
            tb.introduce_to(ta.host, ta.port)
            pinned = ta._known_remote[URIS[1]]

            from repro.crypto.signature import get_scheme

            impostor = {
                "party": URIS[1],
                "coordinator_address": URIS[1],
                "host": tb.host,
                "port": tb.port,
                "public_key": get_scheme("hmac").generate_keypair().public,
            }
            with pytest.raises(ProtocolError, match="conflicts"):
                ta._absorb([impostor])
            # The original pin and the organisations' trust are untouched.
            assert ta._known_remote[URIS[1]] is pinned
            org = da.organisation(URIS[0])
            assert (
                org.evidence_verifier.key_for(URIS[1]).material_fingerprint()
                == pinned.material_fingerprint()
            )
            # Re-introducing the same key stays benign.
            tb.introduce_to(ta.host, ta.port)

    def test_wire_domain_clock_must_come_from_the_transport(self):
        with WireTransport(
            local_parties=[URIS[0]], await_remote_credentials=False
        ) as transport:
            with pytest.raises(ProtocolError, match="transport's clock"):
                TrustDomain.create(
                    URIS, transport=transport, clock=SimulatedClock()
                )
            # The transport's own clock (or None) is fine.
            TrustDomain.create(
                URIS, transport=transport, clock=transport.network.clock
            )

    def test_wire_domain_guards(self):
        with WireTransport(
            local_parties=[URIS[0]], await_remote_credentials=False
        ) as transport:
            with pytest.raises(ProtocolError, match="DIRECT"):
                TrustDomain.create(
                    URIS, transport=transport, style=DeploymentStyle.INLINE_TTP
                )
            with pytest.raises(ProtocolError, match="in-process"):
                TrustDomain.create(URIS, transport=transport, with_arbitrator=True)
            with pytest.raises(ProtocolError, match="outside the domain"):
                TrustDomain.create(URIS[1:], transport=transport)
            with pytest.raises(ProtocolError, match="transport's own network"):
                TrustDomain.create(
                    URIS,
                    transport=transport,
                    network=SimulatedNetwork(clock=SimulatedClock()),
                )
            with pytest.raises(ProtocolError, match="not both"):
                TrustDomain.create(
                    URIS,
                    transport=transport,
                    fault_model=FaultModel(drop_probability=0.5),
                    fault_plan=FaultPlan(seed=b"x"),
                )

    def test_wire_domain_accepts_either_fault_surface(self):
        # fault_model= on a wire domain routes to the wire-side injector as
        # an equivalent FaultPlan instead of being rejected.
        with WireTransport(
            local_parties=[URIS[0]], await_remote_credentials=False
        ) as transport:
            domain = TrustDomain.create(
                URIS,
                transport=transport,
                scheme="hmac",
                fault_model=FaultModel(drop_probability=0.5, seed=b"guard"),
            )
            assert domain.network is transport.network
            assert domain.network.fault_plan is not None
            assert domain.network.fault_injector is not None
        with WireTransport(
            local_parties=[URIS[0]], await_remote_credentials=False
        ) as transport:
            plan = FaultPlan(
                rules=(FaultRule(fault="drop", probability=0.25),), seed=b"p"
            )
            domain = TrustDomain.create(
                URIS, transport=transport, scheme="hmac", fault_plan=plan
            )
            assert domain.network.fault_plan is plan

    def test_remote_parties_are_listed_but_not_instantiated(self):
        with WireTransport(
            local_parties=[URIS[0]], await_remote_credentials=False
        ) as transport:
            domain = TrustDomain.create(URIS, transport=transport, scheme="hmac")
            assert sorted(domain.organisations) == [URIS[0]]
            assert domain.remote_parties == sorted(URIS[1:])
            assert domain.party_uris() == sorted(URIS)
            with pytest.raises(ProtocolError):
                domain.organisation(URIS[1])
            # share_object registers locally and tolerates remote members,
            # but still rejects URIs that belong to no one.
            domain.share_object("doc", {"v": 0})
            with pytest.raises(ProtocolError):
                domain.share_object("doc2", {"v": 0}, member_uris=["urn:org:typo", URIS[0]])

    def test_payload_codec_violations_surface_loudly(self, wire_pair):
        a, b = wire_pair
        b.register("urn:svc", lambda message: "ok")
        _link(a, b, "urn:svc")
        with pytest.raises(wirecodec.WireCodecError):
            a.send("urn:src", "urn:svc", "op", object())

    def test_encode_once_payloads_are_spliced(self, wire_pair):
        a, b = wire_pair
        received = {}

        def capture(message):
            received["payload"] = message.payload
            return "ok"

        b.register("urn:svc", capture)
        _link(a, b, "urn:svc")
        pre_encoded = codec.canonicalize({"k": [1, 2, 3]})
        assert a.send("urn:src", "urn:svc", "op", pre_encoded) == "ok"
        assert received["payload"] == {"k": [1, 2, 3]}

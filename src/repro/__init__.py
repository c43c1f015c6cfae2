"""repro -- reproduction of "Component Middleware to Support Non-repudiable
Service Interactions" (Cook, Robinson, Shrivastava, 2004).

The package provides component middleware for regulated, non-repudiable
interaction between organisations:

* **NR-Invocation** -- non-repudiable service invocation with exchange of
  NRO/NRR evidence tokens around an ordinary component invocation.
* **NR-Sharing** -- non-repudiable information sharing (B2BObjects) with
  unanimous, attributable agreement on every update to shared state.
* **Trust domains** -- the same application code runs over direct,
  inline-TTP and distributed-inline-TTP deployments of the trusted
  interceptors.

Quickstart::

    from repro import TrustDomain, DeploymentStyle, ComponentDescriptor

    domain = TrustDomain.create(["urn:org:dealer", "urn:org:manufacturer"])
    dealer = domain.organisation("urn:org:dealer")
    manufacturer = domain.organisation("urn:org:manufacturer")

    class OrderService:
        def place_order(self, model):
            return {"order_id": 1, "model": model, "status": "accepted"}

    manufacturer.deploy(
        OrderService(),
        ComponentDescriptor(name="OrderService", non_repudiation=True),
    )
    proxy = dealer.nr_proxy(manufacturer, "OrderService")
    proxy.place_order("roadster")          # non-repudiable invocation

Performance architecture
------------------------

The paper's own evaluation names cryptographic computation, evidence space
overhead and protocol communication as the dominant costs of non-repudiable
interaction.  The hot paths are built around an **encode-once invariant**:
every value that crosses a protocol boundary is resolved to its canonical
representation exactly once, and the ``(bytes, digest, size)`` triple of
that representation is reused everywhere downstream.

* **Content-addressed canonical encoding** -- ``repro.codec.canonicalize``
  produces an immutable ``Encoded`` snapshot; ``Encoded`` values (and the
  cached encodings of evidence tokens and protocol messages) are *spliced*
  verbatim into any enclosing encoding, so fanning one proposal out to N
  peers encodes the shared body once, not N times.  ``Encoded`` behaves as a
  read-only mapping over its source value, so handlers keep treating
  payloads as dictionaries.

* **Cache keys and invalidation** -- per-instance caches live on immutable
  carriers (frozen ``EvidenceToken``; ``B2BProtocolMessage`` drops its cache
  whenever a public field is reassigned -- mutate fields by reassignment,
  never in place).  Agreed shared state is held directly as its canonical
  encoding (content-addressed versions), so state digests are free and no
  version-keyed lookup is needed on the hot paths.  For values that lack an
  immutable carrier, ``repro.codec.EncodingCache`` provides keyed
  cross-version reuse: keys must change with the payload (e.g.
  ``(object_id, version)``), and payloads replaced in place under an
  unchanged key require an explicit ``invalidate(key)``.

* **Verification memoisation** -- signature verification verdicts are
  memoised process-wide, keyed on (scheme, key-material fingerprint, digest,
  signature bytes) -- never the declared key id -- so redistributed
  ``NR_DECISION``/``NR_OUTCOME`` tokens verify once per process.  A token
  hashes its signed body once per object (``EvidenceToken.body_digest``,
  seeded by the builder with the digest it signed) and the verifier passes
  that digest on instead of rehashing.  RSA prepares each key's
  exponentiations once (``repro.crypto.modexp.prepare_mod_exp``): the two
  CRT halves on OpenSSL's constant-time ``BN_mod_exp_mont_consttime``, the
  public exponent on ``BN_mod_exp_mont``, each with its Montgomery context
  cached, keyed on key material; other schemes call the one-shot
  ``BN_mod_exp``.  Without libcrypto everything falls back to the built-in
  ``pow`` with identical results.  Identifiers, nonces and keys draw from
  the OS CSPRNG (``os.urandom``), so no generator state is shared across
  ``fork()``; key primes pass a one-``gcd`` small-prime screen and 32
  Miller-Rabin rounds, and carry their top two bits, so a key takes two.

* **Batched coordination fan-out** -- ``B2BCoordinator.request_all`` /
  ``send_all`` deliver a whole fan-out through one batched, retried network
  call (``SimulatedNetwork.send_batch``), accounting per-message statistics
  identically to sequential sends without re-encoding the shared body per
  recipient.  Message sizes are computed once and cached; payloads that fall
  back to lossy ``repr`` sizing are surfaced in
  ``NetworkStatistics.messages_sized_by_repr``.

* **Splice-only, batched persistence writes** -- persisting an agreed update
  re-encodes nothing and grows with nothing.  ``EvidenceStore`` writes each
  record as a fixed envelope around the token's cached canonical text
  (byte-identical to the generic encoder's output for the same record) and
  keeps no decoded copy: records are decoded, and memoised, when a dispute or
  a recovery *reads* them.  ``StateStore`` appends one small history entry
  per agreed version (``state:{owner}:history:{object_id}:{version:012d}``),
  so version 10 000 costs what version 1 did.  The compact outcome record
  it keeps per version splices the outcome's cached text and holds no token.

* **One backend commit per protocol step** -- the stores write through a
  per-thread *storage step* (``repro.persistence.storage``): during a
  coordinator delivery, a phase of a coordination run or an invocation,
  every write of the evidence store, run journal, state store and audit log
  is collected (each store reads its own pending records back), and a
  commit hands each backend its records, in write order, through one
  ``StorageBackend.put_many`` -- one lock in memory, one all-or-nothing
  transaction on SQLite, where ``storage="sqlite:..."`` opens one backend
  per organisation for all four stores.  Commits happen where durability is
  owed: after every run-journal record, before the coordinator hands a
  message to the network, and at step exit.  An agreed update is 2
  transactions per responder and 4 at the proposer (5 parties, durable:
  12 for 49 rows, 32 before), and a step is atomic across stores.

Concurrency model
-----------------

On top of the encode-once substrate, the protocol engine runs concurrently:

* **What the network lock protects** -- admission of every message (fault
  decisions, statistics, trace, message ids) happens under the single
  network lock, in entry order, so traffic accounting is deterministic and
  bit-identical whatever happens afterwards.  Handler *dispatch* happens
  outside the lock through a pluggable ``DispatchStrategy``:
  ``SequentialDispatch`` (default) preserves strict entry-order execution,
  ``ParallelDispatch`` runs the admitted handlers of one ``send_batch`` on a
  shared worker pool, so per-destination link latency and GIL-releasing
  signature work (OpenSSL exponentiation via ctypes) overlap across the
  fan-out.
  Property tests assert that both strategies produce identical
  ``NetworkStatistics`` and replica state for the same seeded fault model.

* **Handler thread-safety contract** -- any endpoint reachable through a
  batched call on a parallel network may be invoked concurrently with other
  endpoints (never concurrently with itself for one message).  Every store
  in this package (evidence, state, audit), the coordinator tables, the
  membership service and the signature-verification memo are lock-protected;
  application handlers deployed behind NR interceptors must either be
  thread-safe or be deployed on a sequential network.  Work submitted from a
  worker thread runs inline (``repro.parallel``), so nested fan-outs degrade
  to sequential execution instead of risking pool-exhaustion deadlock.

* **Nonce-pool lifecycle** -- DSA's expensive per-signature work
  (``r = g^k mod p``, ``k^-1 mod q``) is message-independent, so a
  ``repro.crypto.dsa.NoncePool`` precomputes ``(k, k^-1, r)`` triples per
  domain-parameter set.  Pools are created lazily after
  ``enable_nonce_pools()`` and dropped by ``disable_nonce_pools()``; a
  daemon refill thread tops the pool up whenever it drains below its
  low-water mark, and an empty pool computes triples synchronously, so
  signing is never blocked on the refill thread.  Pooling trades the
  deterministic RFC 6979 nonce derivation for offline precomputation
  (nonces then come from the OS CSPRNG) and is therefore
  opt-in; the default remains deterministic signing.

* **Batched verification** -- ``EvidenceVerifier.verify_all`` checks an
  evidence-token set in order on the calling thread (one ``require_valid``
  per token, verification errors reported per slot, anything else raised),
  used by dispute resolution and to keep the verifiable evidence of an
  outcome a replica does not apply.  It takes no worker: a set is a few
  tokens and a verification tens of microseconds or a memo hit.
  ``DisputeResolver.adjudicate_from_store`` revives only the stored records
  that can bear on a claim and verifies every one of those.

* **One run engine** -- every reliable send and every coordination round
  executes on one scheduled state machine; the blocking and non-blocking
  entry points differ only in who waits.

  *Delivery.*  Each network constructs a
  ``repro.transport.scheduler.RetryScheduler`` on its clock.  A
  ``ReliableChannel`` send is attempt -> outcome -> resolve its
  ``DeliveryFuture`` (success, permanent failure, exhausted budget) or
  schedule the next attempt as a timer at ``now + backoff``; a fan-out is
  one such machine per wave (all still-pending entries share one network
  batch and one backoff timer) with one future for the wave.  The first
  attempt runs on the calling thread, so on a healthy link the future is
  resolved before ``send_scheduled`` / ``send_batch_scheduled`` return and
  no timer exists; ``send`` / ``send_batch`` are ``.result()`` on it.
  Futures thread through ``RemoteInvoker.call_batch_async`` and
  ``B2BCoordinator.request_all_async`` / ``send_all_async``.

  *Runs.*  A coordination round is a two-phase state machine
  (``repro.core.sharing._CoordinationRun``) with one driver, ``start()``:
  it runs phase 1 on the calling thread and chains each later phase on the
  fan-out it needs.  A run leaves the thread that is executing it only when
  it has to wait: a fan-out that is already complete continues **inline**;
  one that is waiting on retry timers continues from its completion
  callback, which fires on whichever thread resolved the last delivery.
  ``RetryScheduler.resume`` decides where, by the rule timer callbacks
  already follow: on a virtual clock inline, in resolution order
  (deterministic; no real latency to overlap); on a wall clock with one
  **hop** to the ``repro.parallel`` executor, so the resolving thread goes
  back to its timers.  Between phases a waiting run occupies no thread --
  only timers and callbacks -- so hundreds of runs started from one thread
  stay in flight together (BENCH_4: 256).  ``propose_update`` /
  ``connect_member`` / ``disconnect_member`` are ``..._async(...).result()``;
  a healthy blocking update schedules no timer, submits nothing to the
  executor and waits on no condition.

  *Who drives timers.*  There is no timer thread: threads *waiting* on a
  future fire whatever is due (their own run's retries or any other's) and
  advance a virtual clock idempotently to the next deadline, so concurrent
  runs overlap their retry waits instead of summing them.  A future nobody
  waits on is resolved without taking the scheduler lock.  Virtual-clock
  integrity is kept by scheduler *advance holds*: while a run is computing
  (``start()``'s synchronous stretch, a resumed continuation, a firing
  callback) drivers wait instead of advancing simulated time over it -- but
  a wait nested *inside* held work (a TTP relay's onward delivery) counts as
  waiting, so it can itself move time on.

  *Deadlines.*  Timers carry an optional *run tag*;
  ``RetryScheduler.cancel_run(run_id)`` withdraws every timer of one run.
  A run accepts a ``deadline`` (abort for updates, membership-change expiry
  for connect/disconnect): expiry aborts the pending run -- cancelling its
  delivery retries, resolving its ``RunFuture`` as not-agreed, leaking no
  timers.  ``FairExchangeClient.schedule_abort``, responder orphan expiry
  and outcome re-delivery ride the same heap, so they work on every domain.

  *The commit barrier.*  Abort and commit race under one lock; once the
  outcome wave may leave, the run can complete but no longer abort.  With a
  run journal the barrier writes ``committed`` before any outcome message
  leaves, and the future's resolution writes ``settled`` -- except for a
  run that *failed after* the barrier (a storage error in the local apply,
  an injected crash): its record stays ``committed``, the caller gets the
  original exception from ``.result()``, and ``recover_runs()`` resumes it,
  because peers may already have applied the outcome.  Delivery effort is
  observable through ``NetworkStatistics.attempts_per_destination`` /
  ``deliveries_per_destination``; ``ReliableChannel.close()`` cancels
  in-flight retries without leaking timers.

* **Forward-secure offline/online split** -- everything in a
  forward-secure signature except the inner DSA operation is
  message-independent (per-period key, Merkle inclusion proof).
  ``repro.crypto.forward_secure.enable_period_precompute()`` (opt-in,
  beside ``enable_nonce_pools()``) caches that context per
  ``(root, period)``, builds the Merkle tree once per key set, and stages
  the next period's context on the shared executor at first use and on
  ``evolve_key`` -- which also eagerly evicts the evolved-away period's
  secret from the cache, so forward security never depends on cache luck.
  Signature bytes are identical to the uncached path.

Durability architecture
-----------------------

A trusted interceptor process can die mid-coordination.  Without durability
a crashed proposer silently strands its run: peers hold half-collected
evidence and responder state for a round that will never settle, and a
restarted proposer has no memory the run ever existed.
``TrustDomain.create(durable_runs=True)`` (or
``Organisation(durable_runs=True)``) closes that gap:

* **Write-ahead run journal** -- ``repro.persistence.run_journal.RunJournal``
  records each coordination run's phase transition *before its side effects
  dispatch*, behind the same ``StorageBackend`` interface as the evidence
  store (pair it with a ``run_journal_backend_factory`` returning
  ``FileBackend`` directories for real crash recovery).  Three records per
  run, keyed ``runjournal:{owner}:{run_id}:{phase}``: ``proposed`` (the
  canonical proposal -- spliced encode-once -- plus the fan-out wave
  membership, written before the first proposal message leaves),
  ``committed`` (written inside the commit barrier before any outcome
  message leaves: the outcome payload/attributes, recipients, the original
  per-recipient message ids, and the signed ``NR_OUTCOME`` token) and
  ``settled`` (the run resolved; no recovery needed).

* **Recovery semantics** -- ``Organisation.recover_runs()`` (or
  ``TrustDomain.recover_runs()``) replays open journal entries
  deterministically, in run-id order.  The commit barrier decides the
  direction: a run journaled only as ``proposed`` never dispatched its
  outcome, so *no peer can have applied anything* -- recovery aborts it
  through the existing abort machinery and sends every wave member an
  explicit wire-level abort notice (``RunAbortNotice``, action ``abort``).
  A run journaled as ``committed`` may already be applied at peers, so
  recovery *resumes* it: the outcome wave is re-dispatched verbatim (the
  journaled message ids make re-delivery deduplicate at peers that already
  processed it) and the local apply re-driven from the ``proposed``
  record's proposal, proven and version-guarded so a double recovery never
  re-applies.  Both paths settle the journal, making
  ``recover_runs()`` idempotent.  Restarted processes must present the same
  key their peers pinned (``keypair_factory``); the journaled evidence was
  signed with it.

* **Reservations and the agreement proof** -- proposing or accepting a
  proposal *reserves* the object (a competing one is refused ``busy``)
  and keeps the proposal until the run's outcome, abort notice (sent by a
  run ending before its commit barrier) or expiry.  A responder applies
  the proposal it kept only when ``repro.core.agreement.agreement_proof``
  holds -- the outcome wave carries no proposal, nor the responder's own
  decision (it stored the one it signed).  A failing outcome is
  kept as evidence, audited ``outcome-rejected``; an agreed one with no
  reservation (a restart) is audited ``outcome-unheld`` and caught up.

* **Audit** -- the log keeps only what no evidence row or outcome record
  says.  A refusal is audited ``proposal-validated``; an acceptance is the
  reservation, and the run it joined ends in exactly one record: the
  applied version's outcome record, or one audit of ``outcome-received``
  (not agreed), ``outcome-rejected``, ``outcome-unheld``,
  ``run-abort-received`` or ``orphan-run-expired``.  The proposer audits
  one ``update-coordinated`` per run.

* **Orphan expiry** -- a reservation older than ``orphan_run_timeout``
  (default ``DEFAULT_ORPHAN_RUN_TIMEOUT``) is released by the next
  competing proposal.  Setting it also arms a per-decision proposal-age
  timer (``orphan:{party}:{run_id}``) that an outcome or abort notice
  cancels and whose expiry garbage-collects the responder run state.

* **Crash-atomic storage** -- ``FileBackend`` writes records to a temp
  file, fsyncs and renames; the index entry is the commit point of a put.
  Torn index lines, orphaned record files and leftover temp files from a
  crash are ignored (and temp files swept) on reopen.

The kill/restart chaos suite (``tests/property/test_durable_runs_wire.py``)
SIGKILLs a proposer process mid-run over real TCP at a seeded schedule of
crash points, restarts it against the same journal/evidence directories,
recovers, and asserts converge-never-diverge: responder replicas end
mutually identical (state, version and evidence multisets) and no scheduler
timers leak.

Recovery architecture
---------------------

Three self-healing layers sit above the journal, each owning a failure the
others cannot see.  Only journal replay is configured; the other two are
always on:

* **Journal replay** (``durable_runs=True``, above) heals the *proposer's
  own crash*: ``recover_runs()`` aborts half-proposed runs and resumes
  committed ones.  It cannot help when the proposer stayed up but a *peer*
  missed the outcome -- the run is settled, the journal closed.

* **Outcome re-delivery** heals the *undelivered outcome wave*: when a
  run's outcome fan-out misses some peers (or a degraded run could not
  dispatch at all), the proposer queues the exact wave messages on the
  ``RetryScheduler`` -- backoff timers tagged ``redeliver:{party}:{run_id}``,
  breaker-open peers skipped -- until every peer acks, the object advances
  past the run's version (``outcome-redelivery-superseded``) or
  ``REDELIVERY_MAX_ATTEMPTS`` are spent (``outcome-redelivery-abandoned``).
  A healthy run arms nothing; peers dedup re-sends by message id and apply
  late waves proven and version-guarded (``pending_redeliveries()``).

* **Catch-up** heals the *stale replica*: every agreed version keeps a
  compact ``{run_id, outcome}`` record beside its snapshot and history
  entry in the ``StateStore``, from which ``resync_records`` rebuilds the
  signed catch-up record (proposal from snapshot and outcome, tokens from
  the evidence store).  A replica that learns it is behind -- a proposal
  based ahead of it, an ``outcome-unheld`` outcome, a foreign reservation
  blocking its own proposal, or a ``stale base`` refusal -- pulls what it
  missed with ``catch_up(object_id, peer)``: one sharing-protocol request
  on either transport, signed by the requester (``NRO_CATCH_UP``) and
  served to current members only; the tokens served are the ones that
  prove the outcome, whatever else the store holds for the run.  Records
  apply version-guarded once the agreement proof holds
  (``resync-applied``); one that does not decode, revive or prove is
  audited ``resync-rejected``.  Every wire ``introduce_to`` runs the same
  catch-up against the members the peer hosts (``resync_with_peers``), so
  a restarted replica -- resumed at its recorded version when
  ``durable_state=True`` (``object-resumed``) -- converges as it
  reconnects; a member found at the server's version with another digest
  is audited ``resync-divergence``.

Responder-side orphan GC (above) composes with all three: an expiry racing
a late outcome application cancels itself (audited
``orphan-expiry-cancelled``) rather than aborting a committing run, and a
wave re-delivered *after* GC still applies -- the excluded peer ends
byte-identical to one healed by re-delivery or resync
(``tests/property/test_recovery_convergence.py``).  The composed stack is
chaos-gated end to end on both transports
(``tests/property/test_self_healing_chaos.py``): a replica SIGKILLed through
the client-side crash failpoint right after committing restarts over its
persistent store and must reconverge -- durable resume, journal recovery,
resync -- with zero manual re-registration.

Deployment architecture
-----------------------

Two transports implement one network surface (``register`` / ``send`` /
``send_batch`` + statistics, clock, retry-scheduler and dispatch-strategy
attachment points), so everything above the transport -- reliable
channels and their retry timers, parallel dispatch, the run engine -- is
deployment-agnostic:

* **Simulated (in-process)** -- ``repro.transport.network.SimulatedNetwork``
  hosts every endpoint in one interpreter with a configurable injected
  fault model (loss, duplication, latency, partitions) on a virtual clock.
  This is the deterministic research instrument: seeded faults, exact
  statistics, reproducible timelines.

* **Wire (cross-process)** -- ``repro.transport.wire.WireNetwork`` is one
  *node* of a multi-process deployment: locally registered endpoints are
  served from a length-prefixed TCP frame loop, remote destinations are
  resolved through a peer address book (endpoint URI -> ``host:port``) and
  reached through a per-peer connection pool.  Frame bodies reuse the
  encode-once canonical codec; the receiving side *revives* protocol
  objects (messages, evidence tokens) from a wire type registry.  A
  ``repro.transport.wire.WireTransport`` bundles one process's share of a
  trust domain -- hosted parties plus a symmetric credential exchange over
  the node's system channel (introductions pin verification keys and
  routes, trust-on-first-use) -- and plugs into
  ``TrustDomain.create(transport=...)``: the domain then builds
  organisations only for the local parties and resolves the rest over the
  socket.  See ``examples/two_process_sharing.py`` and
  ``benchmarks/bench_wire_runs.py``.

* **Addressing** -- protocol-level addresses stay URIs in both transports
  (coordinator routes, ``reply_to`` fields); only the wire's address book
  knows which process serves which URI, so application and protocol code
  never see ``host:port``.

* **Failure model** -- one fault plane serves both transports.  A seeded
  ``repro.faults.FaultPlan`` (drop, delay+jitter, duplicate, reorder,
  corrupt frames, connection resets, partition windows, crash failpoints)
  drives a deterministic ``FaultInjector`` consulted at message admission
  by *either* network: the simulator realises decisions virtually, while
  the wire maps them onto real sockets -- an injected reset kills the
  connection under the exchange, an injected corrupt frame makes the peer
  reject a framing violation -- so injected failures flow through the
  organic ``DeliveryError`` taxonomy and the organic recovery machinery.
  Organic wire failures behave as before: socket-level failures (refused,
  reset, timeout, killed connection) and offline endpoints surface as
  retryable ``DeliveryError``; unmapped endpoints are permanent
  ``UnknownEndpointError``; remote handler exceptions are revived as
  themselves after the delivery was counted.  Hardening rides the same
  plane: channels honour a per-peer ``repro.faults.CircuitBreaker``
  (audited closed/open/half-open transitions), retry policies offer
  opt-in deterministic full-jitter backoff, wire servers shed inbound
  frames beyond ``max_inflight_frames`` with a retryable overload reply,
  the protocol layer suppresses duplicate message ids and replays cached
  responses, and partition-exhausted runs resolve not-agreed with an
  audited ``run-degraded`` reason instead of stranding waiters.
  Statistics are sender-side, so summing every node's counters reproduces
  the simulator's global view; at 0% loss a split deployment is
  property-tested counter-identical to the simulated one, and under a
  seeded plan (``repro.faults.chaos``) both transports are CI-gated to
  resolve identical outcomes, evidence multisets and replica states.

* **Quiescence** -- external drivers (serve loops, benchmark orchestrators)
  can *check* that the engine has settled instead of sleeping:
  ``RetryScheduler.quiescence()`` samples pending timers (optionally within
  a horizon), advance holds and the shared executor's queue depth, and
  ``wait_quiescent(until=T)`` drives the engine up to -- never past -- the
  horizon.

* **Many-peer scale-out** -- a wire node no longer has to pre-register and
  eagerly exchange credentials with its whole peer set.  With
  ``PeeringConfig`` (``TrustDomain.create(config=DomainConfig(...,
  peering=...))`` or ``WireTransport(peering=PeeringPolicy(...))``), a
  ``repro.peering.PeerChannelManager`` creates each peer's channel --
  credential introduction, pinned key, route, pooled sockets, breaker
  entry -- lazily on first send, tracks last activity, and evicts
  least-recently-used or idle channels under a configurable cap
  (``max_live_channels``, ``idle_timeout_seconds``).  Evictions are
  audited (``transport.peering``) and release only *transport* resources
  (sockets via per-peer pool retirement, breaker state); pinned keys and
  routes survive, so a re-touched peer is re-dialled without a second
  trust-on-first-use window.  ``benchmarks/bench_many_peers.py`` drives
  one node over 1000+ peer channels with live sockets bounded by the cap.

* **Storage profiles** -- ``TrustDomain.create(storage=...)`` provisions
  every organisation's persistence from one selector: ``"memory"``
  (fresh in-memory backends), ``"file:<dir>"`` (one
  ``repro.persistence.storage.FileBackend`` directory per organisation
  and store), or ``"sqlite:<path>"`` (one shared
  ``repro.persistence.sqlite_backend.SQLiteBackend`` embedded-KV file,
  WAL-journalled so many processes of a wire deployment can share it).
  Backends that advertise ``supports_prefix_scan`` serve the evidence
  store's ``(run, token_type)`` queries and the audit-chain replay by
  indexed range scans -- reopening such a store reads only what is
  queried instead of rebuilding an in-memory index over every record.

* **Configuration** -- ``repro.core.config.DomainConfig`` groups
  ``TrustDomain.create``'s two dozen knobs into ``TransportConfig``,
  ``DurabilityConfig``, ``FaultConfig`` and ``PeeringConfig``; every
  cross-field validity rule lives in ``DomainConfig.validate()``.  The flat
  keyword surface remains and delegates through the same path.

Observability architecture
--------------------------

``repro.observability`` is one opt-in plane -- run-scoped distributed
tracing, a process-wide metrics registry and exporters -- shared by both
transports, enabled by ``DomainConfig(observability=ObservabilityConfig())``
(or programmatically via ``repro.observability.runtime.enable``).  When
disabled (the default) every instrumented site is a single attribute load
against ``runtime.STATE`` -- no spans, no timing, no allocation -- and
``benchmarks/bench_observability.py`` asserts the gated traffic counters
stay byte-identical either way.

* **Tracing** -- a coordination run is one trace: the run id is the trace
  id, and ``_CoordinationRun`` opens the root span (``run:update`` /
  ``run:membership``).  Context rides a thread-local ambient slot,
  captured onto every outbound ``Message`` at construction and restored
  around handler dispatch on both transports (the wire carries it in the
  frame envelope, *outside* the canonical byte-accounted payload), onto
  scheduler timers at ``schedule()`` time, and across executor hops by
  explicit re-activation -- so one proposal yields one connected tree
  across processes: per-peer ``request:<peer>``/``send:<peer>`` legs, each
  peer's ``handle:*`` spans, a ``commit`` barrier span covering the
  outcome wave, plus ``redeliver`` attempts and (as a second root in the
  same trace) ``resync:apply`` on a caught-up replica.  Spans land in a
  bounded ``SpanCollector``; ``repro.observability.tracing`` renders and
  compares trees (``render_tree`` / ``tree_shape``), and
  ``python -m repro.observability.trace spans.json`` renders an exported
  file.  Audit records appended under an active span gain
  ``trace_id``/``span_id`` details, and ``audit_records(trace_id=...)``
  joins the evidence trail against the tree.

* **Metrics** -- ``MetricsRegistry`` holds counters, gauges and
  per-thread-sharded histograms (lock-free ``observe`` on the hot path).
  Push-side instruments cover crypto (``crypto.sign_seconds``,
  ``crypto.verify_seconds``), the codec (``codec.encode_seconds``), wire
  round trips (``wire.round_trip_seconds``) and whole runs
  (``run.duration_seconds``); everything else is *pull* collectors
  registered by ``TrustDomain`` -- network statistics, scheduler depth,
  circuit-breaker states, peering occupancy/evictions, evidence/audit/
  journal sizes, nonce pools, executor queue depth -- evaluated only when
  a snapshot is taken.

* **Exporters** -- ``render_prometheus``/``render_json`` serialise a
  snapshot; ``WireTransport.serve_observability(port)`` (or
  ``ObservabilityConfig(http_port=...)``) serves ``/metrics``,
  ``/metrics.json`` and ``/spans.json`` from a daemon-threaded local HTTP
  endpoint, stopped with the transport.
"""

from repro.container.component import Component, ComponentDescriptor, ComponentType
from repro.container.container import Container
from repro.container.interceptor import Interceptor, Invocation, InvocationResult
from repro.core.coordinator import B2BCoordinator
from repro.core.dispute import ClaimType, DisputeClaim, DisputeResolver, Verdict
from repro.core.evidence import EvidenceBuilder, EvidenceToken, EvidenceVerifier, TokenType
from repro.core.invocation import (
    B2BInvocation,
    B2BInvocationHandler,
    InvocationOutcome,
    InvocationStatus,
)
from repro.core.messages import B2BProtocolMessage
from repro.core.organisation import Organisation
from repro.core.sharing import (
    B2BObjectController,
    RunAbortNotice,
    RunFuture,
    SharingOutcome,
)
from repro.core.transactions import SharedStateTransaction, TransactionManager
from repro.core.contracts import ContractFSM, ContractMonitor, ContractValidator
from repro.core.fair_exchange import FairExchangeClient
from repro.core.config import (
    DomainConfig,
    DurabilityConfig,
    FaultConfig,
    ObservabilityConfig,
    PeeringConfig,
    TransportConfig,
)
from repro.core.trust_domain import DeploymentStyle, TrustDomain
from repro.peering import PeerChannelManager, PeeringPolicy
from repro.core.validators import (
    CallableValidator,
    CompositeValidator,
    StateValidator,
    ValidationContext,
    ValidationDecision,
)
from repro.errors import ReproError
from repro.observability import MetricsRegistry, SpanCollector
from repro.persistence.run_journal import JournaledRun, RunJournal
from repro.persistence.sqlite_backend import SQLiteBackend
from repro.persistence.storage import StorageProfile
from repro.transport.network import FaultModel, SimulatedNetwork
from repro.transport.wire import WireNetwork, WireTransport, wire_type

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "B2BCoordinator",
    "B2BInvocation",
    "B2BInvocationHandler",
    "B2BObjectController",
    "B2BProtocolMessage",
    "CallableValidator",
    "ClaimType",
    "Component",
    "ComponentDescriptor",
    "ComponentType",
    "CompositeValidator",
    "Container",
    "ContractFSM",
    "ContractMonitor",
    "ContractValidator",
    "DeploymentStyle",
    "DisputeClaim",
    "DisputeResolver",
    "DomainConfig",
    "DurabilityConfig",
    "EvidenceBuilder",
    "EvidenceToken",
    "EvidenceVerifier",
    "FairExchangeClient",
    "FaultConfig",
    "FaultModel",
    "Interceptor",
    "Invocation",
    "InvocationOutcome",
    "InvocationResult",
    "InvocationStatus",
    "JournaledRun",
    "MetricsRegistry",
    "ObservabilityConfig",
    "Organisation",
    "PeerChannelManager",
    "PeeringConfig",
    "PeeringPolicy",
    "ReproError",
    "RunAbortNotice",
    "RunFuture",
    "RunJournal",
    "SharedStateTransaction",
    "SharingOutcome",
    "SimulatedNetwork",
    "SpanCollector",
    "SQLiteBackend",
    "StateValidator",
    "StorageProfile",
    "TokenType",
    "TransactionManager",
    "TransportConfig",
    "TrustDomain",
    "ValidationContext",
    "ValidationDecision",
    "Verdict",
    "wire_type",
    "WireNetwork",
    "WireTransport",
]

"""Remote method invocation over the simulated network.

In the paper's prototype, each trusted interceptor exports its
``B2BCoordinator`` "as a remote object that remote trusted interceptors make
invocations on to deliver messages" (Section 4.1).  This module provides that
remote-object machinery:

* a :class:`RemoteStub` exposes a local object's methods as a network
  endpoint (address + per-object registry of exported names);
* a :class:`RemoteProxy` is a client-side dynamic proxy whose attribute
  accesses become network sends (mirroring JBoss's dynamic proxies);
* a :class:`RemoteInvoker` owns the endpoint for one address (one
  organisation / server) and can host many exported objects.  Its batched
  calls start one reliable fan-out wave and return a :class:`RemoteCallBatch`
  completion handle; the blocking ``call_batch`` is a wait on that handle.

Exceptions raised by the remote implementation are propagated to the caller
wrapped in :class:`RemoteInvocationError` with the original type preserved in
the payload.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import RemoteInvocationError, UnknownEndpointError
from repro.transport.delivery import ReliableChannel, RetryPolicy
from repro.transport.network import Message, SimulatedNetwork
from repro.transport.scheduler import DeliveryFuture

#: One entry of a batched remote call:
#: ``(remote_address, object_name, method, args, kwargs)``.
RemoteCall = Tuple[str, str, str, List[Any], Dict[str, Any]]

#: Operation name used for all RMI traffic on the network.
RMI_OPERATION = "rmi.invoke"


class RemoteStub:
    """Server-side wrapper exporting selected methods of a target object."""

    def __init__(self, target: Any, exported_methods: Optional[List[str]] = None) -> None:
        self._target = target
        if exported_methods is None:
            exported_methods = [
                name
                for name in dir(target)
                if not name.startswith("_") and callable(getattr(target, name))
            ]
        self._exported = set(exported_methods)

    @property
    def target(self) -> Any:
        return self._target

    def invoke(self, method: str, args: List[Any], kwargs: Dict[str, Any]) -> Any:
        """Invoke ``method`` on the wrapped target."""
        if method not in self._exported:
            raise RemoteInvocationError(
                f"method {method!r} is not exported by {type(self._target).__name__}"
            )
        return getattr(self._target, method)(*args, **kwargs)


class RemoteInvoker:
    """Hosts exported objects behind one network address."""

    def __init__(self, network: SimulatedNetwork, address: str) -> None:
        self._network = network
        self._address = address
        self._stubs: Dict[str, RemoteStub] = {}
        network.register(address, self._handle)

    @property
    def address(self) -> str:
        return self._address

    def export(self, object_name: str, target: Any, methods: Optional[List[str]] = None) -> None:
        """Export ``target`` under ``object_name`` at this invoker's address."""
        self._stubs[object_name] = RemoteStub(target, methods)

    def unexport(self, object_name: str) -> None:
        self._stubs.pop(object_name, None)

    def exported_names(self) -> List[str]:
        return sorted(self._stubs)

    def _handle(self, message: Message) -> Any:
        if message.operation != RMI_OPERATION:
            raise RemoteInvocationError(
                f"unsupported operation {message.operation!r} at {self._address!r}"
            )
        payload = message.payload
        object_name = payload["object"]
        try:
            stub = self._stubs.get(object_name)
            if stub is None:
                raise UnknownEndpointError(
                    f"no object {object_name!r} exported at {self._address!r}"
                )
            result = stub.invoke(payload["method"], payload.get("args", []), payload.get("kwargs", {}))
            return {"status": "ok", "result": result}
        except Exception as error:  # propagate remote failures to the caller
            return {
                "status": "error",
                "error_type": type(error).__name__,
                "error_message": str(error),
            }

    def proxy_for(
        self,
        remote_address: str,
        object_name: str,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> "RemoteProxy":
        """Create a client-side proxy for an object exported elsewhere."""
        return RemoteProxy(
            network=self._network,
            source=self._address,
            destination=remote_address,
            object_name=object_name,
            retry_policy=retry_policy,
        )

    def call_batch(
        self,
        calls: List[RemoteCall],
        retry_policy: Optional[RetryPolicy] = None,
    ) -> List[Tuple[Any, Optional[Exception]]]:
        """Invoke many remote methods through one batched, retried fan-out.

        Returns one ``(result, error)`` pair per call, in order.  Shared
        argument content (pre-encoded protocol messages and tokens) is sized
        from its cached canonical form, so the fan-out never re-encodes the
        common body per recipient.  When the network runs a parallel
        dispatch strategy the remote invocations of one attempt execute
        concurrently, so every exported object reached through a batched
        call must be thread-safe.
        """
        return self.call_batch_async(calls, retry_policy).results()

    def call_batch_async(
        self,
        calls: List[RemoteCall],
        retry_policy: Optional[RetryPolicy] = None,
        run_id: Optional[str] = None,
    ) -> "RemoteCallBatch":
        """Start a batched remote fan-out; returns its completion handle.

        The call returns as soon as the first delivery attempts have run --
        on a healthy network the handle is then already complete; failed
        entries wait for their backoff as scheduler timers, not as sleeps.
        ``run_id`` tags the fan-out's retry timers with the protocol run
        they serve, so aborting the run (``RetryScheduler.cancel_run``)
        withdraws them in one sweep.
        """
        channel = ReliableChannel(
            self._network, self._address, retry_policy, run_id=run_id
        )
        entries = [
            (
                address,
                RMI_OPERATION,
                {"object": object_name, "method": method, "args": args, "kwargs": kwargs},
            )
            for address, object_name, method, args, kwargs in calls
        ]
        return RemoteCallBatch(calls, channel.send_batch_scheduled(entries), channel)


class RemoteCallBatch:
    """Completion handle of one :meth:`RemoteInvoker.call_batch_async` fan-out."""

    def __init__(
        self, calls: List[RemoteCall], future: DeliveryFuture, channel: ReliableChannel
    ) -> None:
        self._calls = calls
        self._future = future
        self._channel = channel

    def done(self) -> bool:
        return self._future.done()

    def cancel(self) -> None:
        """Withdraw the batch's pending retries; its entries fail "closed".

        Goes through :meth:`ReliableChannel.close`, whose closed flag is
        re-checked by every firing reattempt -- so even a retry wave that is
        mid-flight when the cancel lands schedules no further timers.
        """
        self._channel.close()

    def add_done_callback(self, callback: Callable[["RemoteCallBatch"], None]) -> None:
        """Invoke ``callback(self)`` once every entry of the batch resolved.

        Same contract as :meth:`DeliveryFuture.add_done_callback`: an
        already-complete batch fires on the calling thread, otherwise the
        thread that resolves the last pending entry does -- do not block,
        trap your own exceptions.
        """
        self._future.add_done_callback(lambda _future: callback(self))

    def results(self) -> List[Tuple[Any, Optional[Exception]]]:
        """Wait for every entry and unwrap replies into (result, error) pairs.

        Waiting drives the retry scheduler, so a caller blocked here fires
        other runs' due retries instead of idling.
        """
        results: List[Tuple[Any, Optional[Exception]]] = []
        for call, outcome in zip(self._calls, self._future.result()):
            if outcome.error is not None:
                results.append((None, outcome.error))
                continue
            reply = outcome.result
            if reply["status"] == "ok":
                results.append((reply["result"], None))
            else:
                address, object_name, method = call[0], call[1], call[2]
                results.append(
                    (
                        None,
                        RemoteInvocationError(
                            f"remote invocation of {object_name}.{method} at "
                            f"{address} failed: {reply['error_type']}: "
                            f"{reply['error_message']}"
                        ),
                    )
                )
        return results


class _RemoteMethod:
    """Callable bound to one remote method name."""

    def __init__(self, proxy: "RemoteProxy", method: str) -> None:
        self._proxy = proxy
        self._method = method

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self._proxy.invoke(self._method, list(args), dict(kwargs))


class RemoteProxy:
    """Client-side dynamic proxy: attribute access yields remote calls."""

    def __init__(
        self,
        network: SimulatedNetwork,
        source: str,
        destination: str,
        object_name: str,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self._channel = ReliableChannel(network, source, retry_policy)
        self._destination = destination
        self._object_name = object_name

    @property
    def destination(self) -> str:
        return self._destination

    @property
    def object_name(self) -> str:
        return self._object_name

    def invoke(self, method: str, args: List[Any], kwargs: Dict[str, Any]) -> Any:
        """Invoke ``method`` remotely, unwrapping errors raised remotely."""
        reply = self._channel.send(
            self._destination,
            RMI_OPERATION,
            {
                "object": self._object_name,
                "method": method,
                "args": args,
                "kwargs": kwargs,
            },
        )
        if reply["status"] == "ok":
            return reply["result"]
        raise RemoteInvocationError(
            f"remote invocation of {self._object_name}.{method} at "
            f"{self._destination} failed: {reply['error_type']}: {reply['error_message']}"
        )

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        return _RemoteMethod(self, name)

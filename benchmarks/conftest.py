"""Shared fixtures and helpers for the benchmark harness.

Each benchmark module's docstring names the experiment it runs
(F1-F8 reproduce the paper's figures as working scenarios; P1-P4 measure the
performance dimensions the paper's Section 6 identifies: cryptographic
computation, evidence space overhead and protocol communication overhead).

The paper reports no absolute numbers, so the quantities of interest here are
*relative*: NR vs plain invocation, direct vs TTP-mediated deployment,
evidence size vs payload size, cost vs sharing-group size.  Each benchmark
records the relevant counts in ``benchmark.extra_info`` so the generated
tables carry the shape of the result alongside the timings.
"""

from __future__ import annotations

import pytest

from repro import ComponentDescriptor, DeploymentStyle, TrustDomain


class QuoteService:
    """Simple provider-side business service used by the benchmarks."""

    def quote(self, part, quantity=1):
        return {"part": part, "quantity": quantity, "price": 100 * quantity}

    def echo(self, payload):
        return payload


def build_domain(parties=2, style=DeploymentStyle.DIRECT, deploy_service=True, **kwargs):
    """Create a benchmark trust domain with a deployed QuoteService."""
    uris = [f"urn:bench:party{i}" for i in range(parties)]
    domain = TrustDomain.create(uris, style=style, **kwargs)
    if deploy_service:
        provider = domain.organisation(uris[-1])
        provider.deploy(
            QuoteService(),
            ComponentDescriptor(name="QuoteService", non_repudiation=True),
        )
        provider.deploy(QuoteService(), ComponentDescriptor(name="PlainQuoteService"))
    return domain


class CallCounter:
    """Wraps a callable and counts how many times the benchmark invoked it.

    pytest-benchmark decides rounds/iterations itself; wrapping the measured
    function lets per-call network/evidence counters be normalised reliably.
    """

    def __init__(self, func):
        self._func = func
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._func(*args, **kwargs)


@pytest.fixture(scope="module")
def direct_pair():
    """Module-scoped two-party direct domain (client, provider)."""
    domain = build_domain(2)
    return domain, domain.organisation("urn:bench:party0"), domain.organisation("urn:bench:party1")

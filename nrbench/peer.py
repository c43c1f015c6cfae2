"""The wire workload's peer process: hosts the responders, answers the worker.

Started by ``workloads.Share3Wire`` with its job as one JSON argument.  The
control channel is the process's own pipes -- one JSON line per command on
stdin, one JSON line per answer on stdout -- so nothing is left on disk and
the peer ends when the worker closes the pipe.
"""

from __future__ import annotations

import json
import resource
import sys
from time import process_time
from typing import Any, Dict, List, Tuple

import nrbench

nrbench.add_src_to_path()

from repro import DomainConfig, TransportConfig, TrustDomain  # noqa: E402
from repro.transport.wire import WireTransport  # noqa: E402

from nrbench import layers, oracle  # noqa: E402
from nrbench.tracer import Span, Tracer  # noqa: E402
from nrbench.workloads import evidence_bytes  # noqa: E402


def busy_and_glue(tracer: Tracer) -> Tuple[int, int]:
    """Time the serve threads spent producing replies, and the part no span covers.

    A serve thread works on a frame from the moment ``read_frame`` returns it
    to the moment it hands the reply to ``write_frame``.  The write itself is
    left out: the reply is on its way as soon as the kernel has it, and what
    remains of the call is the serve thread being descheduled in favour of
    the woken generator -- it blocks nobody.  Busy time not inside any traced
    span is the serve loop's own code.
    """
    names = [entry.name for entry in tracer.entries]
    read_index = names.index(layers.FRAME_READ)
    write_index = names.index(layers.FRAME_WRITE)
    threads: Dict[int, List[Span]] = {}
    for ident, span in tracer.spans():
        if span[1] == 0:  # root spans only
            threads.setdefault(ident, []).append(span)
    busy = covered = 0
    for spans in threads.values():
        segment_start = None
        for span in spans:
            if span[2] == read_index:
                segment_start = span[4]
            elif span[2] == write_index:
                if segment_start is not None:
                    busy += span[3] - segment_start
                segment_start = None
            else:
                if segment_start is None:
                    # The frame being read when tracing started.
                    segment_start = span[3]
                covered += span[4] - span[3]
    return busy, busy - covered


def main() -> None:
    job = json.loads(sys.argv[1])
    tracer = Tracer(layers.ENTRY_POINTS) if job["trace"] else None
    missing = tracer.install() if tracer is not None else []
    transport = WireTransport(
        local_parties=job["local"], await_remote_credentials=False
    )
    try:
        domain = TrustDomain.create(
            job["parties"],
            config=DomainConfig(transport=TransportConfig(wire=transport)),
        )
        domain.share_object(job["object_id"], job["initial_state"], job["parties"])
        organisations = list(domain.organisations.values())
        answer({"host": transport.host, "port": transport.port})
        marked_cpu = marked_evidence = 0
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "mark":
                marked_cpu = process_time()
                marked_evidence = evidence_bytes(organisations)
                if tracer is not None:
                    tracer.start()
                answer({"ok": True})
            elif command["cmd"] == "report":
                cpu_s = process_time() - marked_cpu
                trace: Dict[str, Any] = {}
                if tracer is not None:
                    tracer.stop()
                    busy, glue = busy_and_glue(tracer)
                    aggregates = tracer.aggregates()
                    # Time inside the framing calls is the socket, not work:
                    # the generator sees it as part of its round-trip wait.
                    del aggregates[layers.FRAME_READ]
                    del aggregates[layers.FRAME_WRITE]
                    trace = {
                        "aggregates": aggregates,
                        "busy_ns": busy,
                        "glue_ns": glue,
                        "missing": missing,
                    }
                answer(
                    {
                        "cpu_s": cpu_s,
                        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024,
                        "evidence_bytes": evidence_bytes(organisations) - marked_evidence,
                        "replicas": [
                            oracle.replica_report(org, job["object_id"])
                            for org in organisations
                        ],
                        "trace": trace,
                    }
                )
            elif command["cmd"] == "adjudicate":
                answer(
                    {
                        "failures": oracle.unrefuted_denials(
                            organisations[0],
                            command["runs"],
                            command["proposer"],
                            command["members"],
                            job["object_id"],
                        )
                    }
                )
            elif command["cmd"] == "stop":
                break
    finally:
        transport.close()
        if tracer is not None:
            tracer.uninstall()


def answer(message: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()

"""Command line of the benchmark.

``python3 -m nrbench --workload W --seed N --seconds S --trace 0|1 [--out F]``
    one driver run: measures workload ``W`` and prints, as the last line of
    stdout, one JSON object ``{"correct", "attempted", "failed", "metrics"}``
    with the end-to-end metrics (``--trace 0``) or the per-layer metrics
    (``--trace 1``).  This is the command ``BENCHMARK.json`` names.

``python3 -m nrbench [--seed N] [--smoke] [--out nrbench/out/result.json]``
    the whole suite: every workload, five interleaved rounds and a traced
    pass, every metric printed by name with its unit, ledger included.

``python3 -m nrbench compare A.json B.json``
    applies the regression bounds to two results written with ``--out``.

Exit code 0 means the outputs were correct (or, for ``compare``, that nothing
regressed).
"""

from __future__ import annotations

import argparse
import json
import sys

import nrbench


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        from nrbench import compare

        if len(sys.argv) != 4:
            print("usage: python3 -m nrbench compare A.json B.json", file=sys.stderr)
            return 2
        return compare.main(sys.argv[2], sys.argv[3])

    nrbench.add_src_to_path()
    from nrbench import runner, spec

    parser = argparse.ArgumentParser(prog="python3 -m nrbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=runner.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="where to write the result document")
    parser.add_argument("--smoke", action="store_true",
                        help="suite only: one short round per workload")
    arguments = parser.parse_args()

    if arguments.workload is None:
        document = runner.suite(arguments.seed, arguments.smoke)
    else:
        document = runner.driver_run(
            arguments.workload, arguments.seed, arguments.seconds, bool(arguments.trace)
        )
    correct = runner.report(document, arguments.out)
    if arguments.workload is not None:
        result = document["workloads"][arguments.workload]
        print(json.dumps(runner.result_line(result, bool(arguments.trace))))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

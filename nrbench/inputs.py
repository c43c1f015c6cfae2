"""Benchmark inputs as a pure function of ``--seed``.

The program under test only ever sees what is generated here.  Field widths
are fixed (two-digit quantities, five-digit prices) and note sizes are an
exact 6:3:1 mix shuffled per block of ten operations, so the *amount* of work
is the same for every seed and only its content and order vary -- byte
counters then compare across seeds, while nothing can be memoised across
them.
"""

from __future__ import annotations

import random
import string
from typing import Any, Dict, List

LINE_ITEMS = 16
#: Note sizes in bytes, drawn 6:3:1.
NOTE_MIX = [64] * 6 + [512] * 3 + [4096] * 1
ORACLE_SAMPLES = 16


def _rng(seed: int, workload: str, stream: str) -> random.Random:
    return random.Random(f"nrbench:{seed}:{workload}:{stream}")


def note_sizes(rng: random.Random, count: int) -> List[int]:
    sizes: List[int] = []
    while len(sizes) < count:
        block = list(NOTE_MIX)
        rng.shuffle(block)
        sizes.extend(block)
    return sizes[:count]


def _note(rng: random.Random, size: int) -> str:
    word = "".join(rng.choice(string.ascii_lowercase) for _ in range(8))
    return (word * (size // 8 + 1))[:size]


def documents(seed: int, workload: str, count: int) -> List[Dict[str, Any]]:
    """``count`` shared-state documents: 16 keyed line items plus a note."""
    rng = _rng(seed, workload, "documents")
    sizes = note_sizes(rng, count)
    return [
        {
            "order": f"{workload}-{index:06d}",
            "items": {
                f"sku-{item:02d}": {
                    "qty": rng.randint(10, 99),
                    "price_cents": rng.randint(10000, 99999),
                }
                for item in range(LINE_ITEMS)
            },
            "note": _note(rng, sizes[index]),
        }
        for index in range(count)
    ]


def invocations(seed: int, workload: str, count: int) -> List[Dict[str, Any]]:
    """``count`` argument sets for the quote service."""
    rng = _rng(seed, workload, "invocations")
    sizes = note_sizes(rng, count)
    return [
        {
            "sku": f"sku-{rng.randint(100000, 999999)}",
            "quantity": rng.randint(10, 99),
            "note": _note(rng, sizes[index]),
        }
        for index in range(count)
    ]


def fault_seed(seed: int, workload: str) -> int:
    return _rng(seed, workload, "faults").getrandbits(48)


def oracle_sample(seed: int, workload: str, count: int) -> List[int]:
    """Indices of the operations whose evidence the oracle adjudicates."""
    rng = _rng(seed, workload, "oracle")
    return sorted(rng.sample(range(count), min(ORACLE_SAMPLES, count)))

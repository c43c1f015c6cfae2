"""Secure hashing utilities: digests, hash chains and Merkle trees.

The non-repudiation tokens of the paper are "a signature on a secure hash of
the evidence generated" (Section 3.2).  The audit log additionally chains
entry digests so that tampering with stored evidence is detectable
(Section 3.5, persistence requirements).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Union

BytesLike = Union[bytes, bytearray, memoryview, str]

DEFAULT_ALGORITHM = "sha256"


def _to_bytes(data: BytesLike) -> bytes:
    """Normalise str/bytes-like input to ``bytes`` (UTF-8 for text)."""
    if isinstance(data, str):
        return data.encode("utf-8")
    return bytes(data)


def secure_hash(data: BytesLike, algorithm: str = DEFAULT_ALGORITHM) -> bytes:
    """Return the digest of ``data`` under ``algorithm`` (default SHA-256)."""
    if type(data) is bytes and algorithm == DEFAULT_ALGORITHM:
        return hashlib.sha256(data).digest()  # half the cost of hashlib.new
    hasher = hashlib.new(algorithm)
    hasher.update(_to_bytes(data))
    return hasher.digest()


def secure_hash_hex(data: BytesLike, algorithm: str = DEFAULT_ALGORITHM) -> str:
    """Return the hexadecimal digest of ``data``."""
    return secure_hash(data, algorithm).hex()


def combine_digests(*digests: BytesLike, algorithm: str = DEFAULT_ALGORITHM) -> bytes:
    """Hash the concatenation of several digests into one.

    Each input is length-prefixed before concatenation so that distinct
    sequences of inputs cannot collide by re-partitioning the byte stream.
    """
    hasher = hashlib.new(algorithm)
    for digest in digests:
        raw = _to_bytes(digest)
        hasher.update(len(raw).to_bytes(8, "big"))
        hasher.update(raw)
    return hasher.digest()


@dataclass
class HashChainEntry:
    """One link in a hash chain: the entry digest and the cumulative digest."""

    index: int
    entry_digest: bytes
    chain_digest: bytes


class HashChain:
    """An append-only hash chain.

    Each appended item produces a cumulative digest
    ``H(previous_chain_digest || H(item))``.  Any modification, insertion or
    deletion of an earlier item changes every subsequent chain digest, which
    is what the audit log relies on for tamper evidence.
    """

    GENESIS = b"\x00" * 32

    def __init__(self, algorithm: str = DEFAULT_ALGORITHM) -> None:
        self._algorithm = algorithm
        self._entries: List[HashChainEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> Sequence[HashChainEntry]:
        return tuple(self._entries)

    @property
    def head(self) -> bytes:
        """The latest cumulative digest (``GENESIS`` if the chain is empty)."""
        if not self._entries:
            return self.GENESIS
        return self._entries[-1].chain_digest

    def append(self, item: BytesLike) -> HashChainEntry:
        """Append ``item`` and return its link."""
        entry_digest = secure_hash(item, self._algorithm)
        chain_digest = combine_digests(
            self.head, entry_digest, algorithm=self._algorithm
        )
        entry = HashChainEntry(
            index=len(self._entries),
            entry_digest=entry_digest,
            chain_digest=chain_digest,
        )
        self._entries.append(entry)
        return entry

    def verify(self, items: Iterable[BytesLike]) -> bool:
        """Re-derive the chain from ``items`` and compare against stored links.

        Returns ``True`` only if the number of items matches and every
        per-entry and cumulative digest matches what was recorded at append
        time.
        """
        expected_head = self.GENESIS
        count = 0
        for index, item in enumerate(items):
            if index >= len(self._entries):
                return False
            entry = self._entries[index]
            entry_digest = secure_hash(item, self._algorithm)
            expected_head = combine_digests(
                expected_head, entry_digest, algorithm=self._algorithm
            )
            if entry.entry_digest != entry_digest:
                return False
            if entry.chain_digest != expected_head:
                return False
            count += 1
        return count == len(self._entries)


@dataclass
class MerkleProof:
    """Inclusion proof for a Merkle tree leaf.

    ``path`` lists sibling digests from the leaf up to the root, each paired
    with a flag indicating whether the sibling is on the left.
    """

    leaf_index: int
    leaf_digest: bytes
    path: List[tuple] = field(default_factory=list)

    def verify(self, root: bytes, algorithm: str = DEFAULT_ALGORITHM) -> bool:
        """Return ``True`` if this proof links ``leaf_digest`` to ``root``."""
        current = self.leaf_digest
        for sibling, sibling_is_left in self.path:
            if sibling_is_left:
                current = combine_digests(sibling, current, algorithm=algorithm)
            else:
                current = combine_digests(current, sibling, algorithm=algorithm)
        return current == root


class MerkleTree:
    """A Merkle tree over a list of items.

    Used to produce compact commitments to collections of evidence (for
    example, all evidence belonging to one protocol run) and inclusion proofs
    for individual items.
    """

    def __init__(
        self, items: Optional[Iterable[BytesLike]] = None, algorithm: str = DEFAULT_ALGORITHM
    ) -> None:
        self._algorithm = algorithm
        self._leaves: List[bytes] = []
        self._levels: List[List[bytes]] = []
        self._dirty = True
        if items is not None:
            for item in items:
                self.add(item)

    def __len__(self) -> int:
        return len(self._leaves)

    def add(self, item: BytesLike) -> int:
        """Add an item, returning its leaf index."""
        self._leaves.append(secure_hash(item, self._algorithm))
        self._dirty = True
        return len(self._leaves) - 1

    def _build(self) -> None:
        if not self._dirty:
            return
        if not self._leaves:
            self._levels = [[secure_hash(b"", self._algorithm)]]
            self._dirty = False
            return
        levels = [list(self._leaves)]
        while len(levels[-1]) > 1:
            current = levels[-1]
            nxt: List[bytes] = []
            for i in range(0, len(current), 2):
                left = current[i]
                right = current[i + 1] if i + 1 < len(current) else current[i]
                nxt.append(combine_digests(left, right, algorithm=self._algorithm))
            levels.append(nxt)
        self._levels = levels
        self._dirty = False

    @property
    def root(self) -> bytes:
        """The tree root (a digest of the empty string for an empty tree)."""
        self._build()
        return self._levels[-1][0]

    def proof(self, index: int) -> MerkleProof:
        """Return an inclusion proof for the leaf at ``index``."""
        if index < 0 or index >= len(self._leaves):
            raise IndexError(f"no leaf at index {index}")
        self._build()
        path: List[tuple] = []
        position = index
        for level in self._levels[:-1]:
            if position % 2 == 0:
                sibling_index = position + 1
                sibling_is_left = False
            else:
                sibling_index = position - 1
                sibling_is_left = True
            if sibling_index >= len(level):
                sibling_index = position
            path.append((level[sibling_index], sibling_is_left))
            position //= 2
        return MerkleProof(
            leaf_index=index, leaf_digest=self._leaves[index], path=path
        )

"""Checkpoint records and their lifecycle in stable storage.

The :class:`CheckpointStore` is the *content* of stable storage: per-process
chains of checkpoints (tentative → committed), recorded channel state, and
flushed message logs. The *timing* of getting bytes there is modelled by
:class:`repro.machine.storage.StableStorage`; this module only accounts for
what is stored, which gives the paper's storage-overhead comparison
(coordinated keeps at most two checkpoints per process; independent
accumulates a chain until garbage collection).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..net.message import Message
from .state import Snapshot

__all__ = ["CheckpointRecord", "CheckpointStore"]


@dataclass
class CheckpointRecord:
    """One local checkpoint of one process."""

    rank: int
    index: int  #: checkpoint number for this process (1-based; 0 = initial)
    snapshot: Snapshot
    comm_meta: dict  #: sent/consumed counts + collective counter at the cut
    taken_at: float  #: simulated time of the cut
    #: in-transit messages recorded into this checkpoint (coordinated
    #: protocols record them between the cut and the markers). Once the
    #: record is stored, append through ``CheckpointStore.record_channel_msg``.
    channel_msgs: List[Message] = field(default_factory=list)
    #: sender-log messages flushed together with this checkpoint
    #: (independent checkpointing with message logging).
    log_annex: List[Message] = field(default_factory=list)
    committed: bool = False
    written_at: Optional[float] = None  #: when the write to storage finished
    #: two-level storage: when the background copy to the *global* server
    #: finished (equals ``written_at`` in single-level operation).
    global_written_at: Optional[float] = None
    #: fixed process-image overhead (code, stack, heap) saved on top of the
    #: application data — CHK-LIB was a system-level checkpointer.
    pad_bytes: int = 0
    #: incremental checkpointing: actual bytes shipped to storage for the
    #: state (dirty pages only); ``None`` means a full write.
    stored_state_bytes: Optional[int] = None
    #: index of the checkpoint this increment builds on (``None`` = full).
    base_index: Optional[int] = None
    #: CRC of the state image *as stored* — set at capture; silent media
    #: corruption perturbs it so recovery-time validation can detect it.
    #: (Log annexes carry per-message framing checksums and are salvaged
    #: even from a corrupt record; only the state image is suspect.)
    stored_checksum: Optional[int] = None
    #: quarantined by recovery: failed integrity validation or exhausted
    #: its restore-read retries; never eligible for recovery again.
    quarantined: bool = False

    def __post_init__(self) -> None:
        if self.stored_checksum is None:
            self.stored_checksum = self.content_checksum()

    # -- integrity -----------------------------------------------------------

    def content_checksum(self) -> int:
        """CRC over the state image this record restores."""
        return zlib.crc32(self.snapshot.blob)

    def verify_integrity(self) -> bool:
        """Does the stored image still match its capture-time checksum?"""
        return self.stored_checksum == self.content_checksum()

    def mark_corrupted(self) -> None:
        """Silently rot the stored image (fault injection / tests)."""
        self.stored_checksum = (self.content_checksum() ^ 0xDEADBEEF) & 0xFFFFFFFF

    @property
    def state_bytes(self) -> int:
        """Logical (full) state size — what a restore materialises."""
        return self.snapshot.nbytes + self.pad_bytes

    @property
    def write_bytes(self) -> int:
        """Bytes actually written to stable storage for the state part."""
        if self.stored_state_bytes is not None:
            return self.stored_state_bytes
        return self.state_bytes

    @property
    def incremental(self) -> bool:
        return self.base_index is not None

    @property
    def channel_bytes(self) -> int:
        return sum(m.size for m in self.channel_msgs)

    @property
    def log_bytes(self) -> int:
        return sum(m.size for m in self.log_annex)

    @property
    def total_bytes(self) -> int:
        """Stable-storage occupancy of this record."""
        return self.write_bytes + self.channel_bytes + self.log_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = "committed" if self.committed else "tentative"
        if self.quarantined:
            flag += " QUARANTINED"
        return f"<Ckpt r{self.rank}#{self.index} {flag} {self.total_bytes}B>"


class CheckpointStore:
    """All checkpoints currently held in stable storage."""

    def __init__(self, n_ranks: int) -> None:
        self.n_ranks = n_ranks
        self._chains: Dict[int, Dict[int, CheckpointRecord]] = {
            r: {} for r in range(n_ranks)
        }
        # running occupancy, kept by every method that adds or removes
        # stored bytes (a full rescan would cost O(records) per add)
        self._bytes = 0
        self._records = 0
        # metrics
        self.peak_bytes = 0
        self.peak_checkpoints = 0
        self.discarded_bytes = 0.0
        self.discarded_count = 0
        self.quarantined_count = 0

    # -- additions -----------------------------------------------------------

    def add(self, record: CheckpointRecord) -> None:
        chain = self._chains[record.rank]
        if record.index in chain:
            raise ValueError(
                f"duplicate checkpoint index {record.index} for rank {record.rank}"
            )
        if record.index < 1:
            raise ValueError(f"checkpoint indices are 1-based, got {record.index}")
        chain[record.index] = record
        self._bytes += record.total_bytes
        self._records += 1
        self.peak_bytes = max(self.peak_bytes, self._bytes)
        self.peak_checkpoints = max(self.peak_checkpoints, self._records)

    def record_channel_msg(self, record: CheckpointRecord, msg: Message) -> None:
        """Append an in-transit message to *record*'s channel state, which
        may happen after the record was added (a marker can arrive after
        the state write finished)."""
        record.channel_msgs.append(msg)
        if self._chains[record.rank].get(record.index) is record:
            self._bytes += msg.size

    def commit(self, rank: int, index: int) -> None:
        """Mark a checkpoint stable (keeps it eligible for recovery)."""
        self._chains[rank][index].committed = True

    def quarantine(self, rank: int, index: int) -> None:
        """Mark a checkpoint unusable (corrupt or unreadable). The record
        stays in storage (it still occupies bytes) but is permanently
        excluded from recovery-line construction."""
        rec = self._chains[rank][index]
        if not rec.quarantined:
            rec.quarantined = True
            self.quarantined_count += 1

    def corrupt(self, rank: int, index: int) -> None:
        """Silently corrupt a stored checkpoint image (fault injection)."""
        self._chains[rank][index].mark_corrupted()

    # -- queries -----------------------------------------------------------------

    def get(self, rank: int, index: int) -> CheckpointRecord:
        return self._chains[rank][index]

    def chain(self, rank: int) -> List[CheckpointRecord]:
        """A rank's checkpoints, oldest first."""
        return [self._chains[rank][i] for i in sorted(self._chains[rank])]

    def latest_index(self, rank: int) -> int:
        """Most recent checkpoint index for *rank* (0 if none)."""
        chain = self._chains[rank]
        return max(chain) if chain else 0

    def latest_committed_global(
        self, eligible: Optional[Callable[[CheckpointRecord], bool]] = None
    ) -> int:
        """Largest index committed by *every* rank (0 if none).

        Quarantined records never qualify; *eligible* narrows further
        (e.g. "must have reached the global server").
        """
        best = 0
        candidates = None
        for rank in range(self.n_ranks):
            committed = {
                i
                for i, rec in self._chains[rank].items()
                if rec.committed
                and not rec.quarantined
                and (eligible is None or eligible(rec))
            }
            candidates = committed if candidates is None else candidates & committed
        if candidates:
            best = max(candidates)
        return best

    def count(self, rank: Optional[int] = None, committed_only: bool = False) -> int:
        if not committed_only:
            return self._records if rank is None else len(self._chains[rank])
        chains = (
            (self._chains[rank],) if rank is not None else self._chains.values()
        )
        total = 0
        for chain in chains:
            for rec in chain.values():
                if rec.committed:
                    total += 1
        return total

    def total_bytes(self) -> int:
        """Stable-storage occupancy of every record held."""
        return self._bytes

    # -- deletion ------------------------------------------------------------------

    def discard(self, rank: int, index: int) -> int:
        """Remove one checkpoint; returns the bytes freed."""
        rec = self._chains[rank].pop(index)
        freed = rec.total_bytes
        self._bytes -= freed
        self._records -= 1
        self.discarded_bytes += freed
        self.discarded_count += 1
        return freed

    def discard_older_than(self, rank: int, index: int) -> int:
        """Remove all of *rank*'s checkpoints strictly older than *index*."""
        freed = 0
        for i in [i for i in self._chains[rank] if i < index]:
            freed += self.discard(rank, i)
        return freed

    # -- incremental-chain support ----------------------------------------------

    def chain_intact(self, rank: int, index: int) -> bool:
        """Is checkpoint *index* restorable — present, unquarantined, and
        with its whole incremental chain present and unquarantined?"""
        idx = index
        while True:
            rec = self._chains[rank].get(idx)
            if rec is None or rec.quarantined:
                return False
            if rec.base_index is None:
                return True
            idx = rec.base_index

    def chain_base(self, rank: int, index: int) -> int:
        """First (full) checkpoint of the incremental chain ending at
        *index* — the oldest record recovery of *index* must read."""
        idx = index
        while True:
            rec = self._chains[rank].get(idx)
            if rec is None:
                raise KeyError(f"rank {rank}: broken incremental chain at {idx}")
            if rec.base_index is None:
                return idx
            idx = rec.base_index

    def restore_read_bytes(self, rank: int, index: int) -> int:
        """Bytes recovery must read from stable storage to materialise
        checkpoint *index*: its whole incremental chain."""
        total = 0
        idx = index
        while True:
            rec = self._chains[rank][idx]
            total += rec.write_bytes
            if rec.base_index is None:
                return total
            idx = rec.base_index

    # -- message-log replay support ------------------------------------------------

    def find_logged(self, src: int, dst: int, seq: int) -> Optional[Message]:
        """Locate a sender-logged message by channel and sequence number."""
        for rec in self.chain(src):
            for msg in rec.log_annex:
                if msg.dst == dst and msg.seq == seq:
                    return msg
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CheckpointStore ranks={self.n_ranks} count={self.count()} "
            f"bytes={self.total_bytes()}>"
        )

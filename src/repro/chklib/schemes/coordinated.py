"""Coordinated checkpointing (the paper's `_NB`, `_NBM`, `_NBMS`).

Protocol (two-phase, coordinator-driven, non-blocking — the Silva & Silva
RDS'92 family, realised with epoch piggybacking plus explicit per-channel
markers, i.e. Chandy–Lamport channel-state recording):

1. the coordinator (rank 0) sends ``REQUEST(n)`` to every rank;
2. a process *cuts* at its next checkpoint point after learning of
   checkpoint *n* (via the request or via a piggybacked epoch on any
   application message): it captures its state, bumps its epoch to *n*,
   snapshots pre-cut messages still queued in its mailbox into the
   checkpoint's channel state, and sends ``MARKER(n)`` on every outgoing
   channel;
3. after its cut, every *delivered* application message with epoch < *n*
   is recorded into the checkpoint's channel state, per channel, until that
   channel's marker arrives (FIFO links make the marker a barrier);
4. a process acks to the coordinator once its state write has finished
   *and* all markers are in; the coordinator then broadcasts ``COMMIT(n)``,
   upon which everyone atomically discards checkpoint *n-1* — coordinated
   checkpointing never holds more than two checkpoints per process.

Variants (what the application blocks on at the cut):

* ``Coord_NB``   — blocked for the full write to stable storage.
* ``Coord_NBM``  — blocked for a main-memory copy; a checkpointer thread
  streams the buffer to storage in the background.
* ``Coord_NBMS`` — as NBM, plus a token ring staggers the background
  writes so only one node uses the storage path at a time.
* ``Coord_NBS``  — ablation: staggering *without* memory checkpointing
  (the app blocks until the token arrives and the write completes) —
  demonstrates the paper's finding that staggering only pays together
  with main-memory checkpointing.

Orphan messages (an application message consumed by a not-yet-cut receiver
but sent post-cut) are tolerated: recovery relies on piecewise-deterministic
re-execution, and the re-sent copies are dropped by per-channel sequence
numbers. See DESIGN.md §5.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Sequence, Set

from ...core.errors import InvariantViolation, SimulationError, StorageFault
from ...core.events import Event
from ...net.message import KIND_CONTROL, KIND_MARKER, Message
from ..incremental import PAGE_SIZE, IncrementalState
from ..policy import CheckpointPolicy, FixedTimes
from ..retry import stable_write
from ..state import Snapshot
from ..storage_mgr import CheckpointRecord
from .base import Scheme, SchemeAgent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime import CheckpointRuntime

__all__ = ["CoordinatedScheme", "CoordinatedAgent"]

CTL_REQUEST = "request"
CTL_ACK = "ack"
CTL_COMMIT = "commit"
CTL_TOKEN = "token"
#: a rank exhausted its write retries: the 2PC round cannot commit and is
#: cancelled everywhere (rank -> coordinator, then broadcast).
CTL_ABORT = "abort"


class _Round:
    """Per-agent state of one in-progress checkpoint."""

    __slots__ = (
        "n",
        "record",
        "markers_pending",
        "token_event",
        "write_done",
        "acked",
        "aborted",
    )

    def __init__(self, n: int, record: CheckpointRecord, others: Set[int], engine) -> None:
        self.n = n
        self.record = record
        self.markers_pending = set(others)
        self.token_event: Event = Event(engine)
        self.write_done = False
        self.acked = False
        self.aborted = False


class CoordinatedAgent(SchemeAgent):
    """Rank-local mechanics of the coordinated protocol."""

    #: In-flight round state — wiped by every recovery/restart, so none of
    #: it belongs in a durable line (see SchemeAgent.RESUME_FIELDS for
    #: what does travel).
    VOLATILE_FIELDS = (
        "round",
        "early_markers",
        "early_tokens",
        "aborted_rounds",
        "inc",
    )

    def __init__(self, scheme: "CoordinatedScheme", runtime, rank: int) -> None:
        super().__init__(scheme, runtime, rank)
        self.round: Optional[_Round] = None
        #: markers that arrived before this process cut for their round.
        self.early_markers: Dict[int, Set[int]] = {}
        #: staggering tokens that arrived before the cut.
        self.early_tokens: Set[int] = set()
        #: rounds cancelled by CTL_ABORT — never cut for these, even if the
        #: (slower) request arrives after the abort.
        self.aborted_rounds: Set[int] = set()
        #: page-level dirty tracking (incremental checkpointing only).
        self.inc: Optional[IncrementalState] = (
            IncrementalState(full_every=scheme.full_every)
            if scheme.incremental
            else None
        )

    def reset_for_recovery(self, epoch: int) -> None:
        self.round = None
        self.early_markers.clear()
        self.early_tokens.clear()
        self.aborted_rounds.clear()
        super().reset_for_recovery(epoch)


class CoordinatedScheme(Scheme):
    """Coordinator + agents for one coordinated variant."""

    klass = "coordinated"

    #: Capture manifests (see :mod:`repro.chklib.resume`). Everything but
    #: the engine-bound staggering slot travels in the pickled scheme:
    #: ``_acks``/``_aborted`` must survive a halt so ``on_crash`` and the
    #: coordinator's bookkeeping resume bitwise-identically.
    RESUME_FIELDS = (
        "times",
        "policy",
        "capture",
        "memory_ckpt",
        "staggered",
        "incremental",
        "full_every",
        "two_level",
        "name",
        "coordinator_rank",
        "marker_scope",
        "_next_n",
        "_initiated",
        "_acks",
        "_aborted",
    )
    VOLATILE_FIELDS = ("_write_slot", "_ring_next", "_ring_leader")

    #: Protocol vocabulary: the two-phase round plus the staggering token
    #: (see the registry's conformance wiring in ``schemes.registry``).
    TRACE_EVENTS = (
        "proto.request",
        "proto.ack",
        "proto.commit",
        "proto.commit_apply",
        "proto.commit_on_recovery",
        "proto.abort_report",
        "proto.abort",
        "proto.abort_apply",
        "proto.token_pass",
    )

    @classmethod
    def model_machines(cls):
        from ...verify.model import TokenRingModel, TwoPhaseCommitModel

        return (("2pc", TwoPhaseCommitModel), ("token-ring", TokenRingModel))

    @classmethod
    def trace_checkers(cls):
        from ...verify.invariants import CoordinatedTwoPhase, StaggeredWriteMutex

        return (CoordinatedTwoPhase, StaggeredWriteMutex)

    def __init__(
        self,
        times: Sequence[float],
        memory_ckpt: bool,
        staggered: bool,
        name: str,
        coordinator_rank: int = 0,
        capture: Optional[str] = None,
        incremental: bool = False,
        full_every: int = 4,
        two_level: bool = False,
        policy: Optional[CheckpointPolicy] = None,
        marker_scope: str = "all",
    ) -> None:
        self.times = sorted(float(t) for t in times)
        #: when to initiate rounds; the explicit ``times`` schedule is the
        #: legacy default, wrapped in a :class:`FixedTimes` policy.
        self.policy = policy if policy is not None else FixedTimes(self.times)
        #: how the cut captures state: "blocking" (write in the app's
        #: time), "memcopy" (buffer + checkpointer thread) or "cow"
        #: (write-protect pages, stream in background, faults pay copies).
        self.capture = capture or ("memcopy" if memory_ckpt else "blocking")
        if self.capture not in ("blocking", "memcopy", "cow"):
            raise ValueError(f"unknown capture mode {self.capture!r}")
        self.memory_ckpt = self.capture != "blocking"
        self.staggered = bool(staggered)
        #: incremental checkpointing: write only dirty pages, with a full
        #: checkpoint every ``full_every`` rounds.
        self.incremental = bool(incremental)
        self.full_every = int(full_every)
        self.two_level = bool(two_level)
        self.name = name + ("_2l" if two_level else "")
        self.coordinator_rank = coordinator_rank
        #: which channels carry markers: "all" (every rank pair — the
        #: classic Chandy–Lamport closure, O(N²) markers per round) or
        #: "peers" (only the application's declared communication graph
        #: via ``app.comm_peers``, O(N·deg) — the tree/graph-limited
        #: marker distribution real large-scale systems use; falls back
        #: to "all" when the application declares no graph).
        if marker_scope not in ("all", "peers"):
            raise ValueError(f"unknown marker scope {marker_scope!r}")
        self.marker_scope = marker_scope
        self._next_n = 1
        #: initiations already fired — a resumed initiator skips this many
        #: policy shots instead of re-requesting pre-halt rounds.
        self._initiated = 0
        self._acks: Dict[int, Set[int]] = {}
        #: rounds the coordinator has cancelled (stale acks are ignored).
        self._aborted: Set[int] = set()
        #: staggering for the blocking-write variant (NBS): a FIFO write
        #: slot granted in cut order. A ring token would deadlock here —
        #: with cuts deferred to iteration boundaries, the token's next hop
        #: can be a rank stalled at a recv on an already-blocked neighbour.
        #: One slot per storage server: ranks sharded onto different
        #: servers do not contend and write concurrently.
        self._write_slot = None
        #: per-server staggering rings (rank -> successor / ring leader),
        #: derived from the machine topology by ``install()``. One ring
        #: per storage server: staggering serialises the *path*, and with
        #: S shards there are S independent paths. The single-server ring
        #: reduces exactly to the legacy global token ring.
        self._ring_next: Optional[Dict[int, int]] = None
        self._ring_leader: Optional[Dict[int, int]] = None

    # -- named variants ------------------------------------------------------

    @classmethod
    def NB(cls, times: Sequence[float], **kw) -> "CoordinatedScheme":
        """Non-blocking protocol, blocking storage write."""
        return cls(times, memory_ckpt=False, staggered=False, name="coord_nb", **kw)

    @classmethod
    def NBM(cls, times: Sequence[float], **kw) -> "CoordinatedScheme":
        """+ main-memory checkpointing."""
        return cls(times, memory_ckpt=True, staggered=False, name="coord_nbm", **kw)

    @classmethod
    def NBMS(cls, times: Sequence[float], **kw) -> "CoordinatedScheme":
        """+ main-memory checkpointing + staggered writes."""
        return cls(times, memory_ckpt=True, staggered=True, name="coord_nbms", **kw)

    @classmethod
    def NBS(cls, times: Sequence[float], **kw) -> "CoordinatedScheme":
        """Ablation: staggered writes without memory checkpointing."""
        return cls(times, memory_ckpt=False, staggered=True, name="coord_nbs", **kw)

    @classmethod
    def NBC(cls, times: Sequence[float], **kw) -> "CoordinatedScheme":
        """Extension: copy-on-write capture, concurrent background writes."""
        return cls(
            times, memory_ckpt=True, staggered=False, name="coord_nbc",
            capture="cow", **kw
        )

    @classmethod
    def NBCS(cls, times: Sequence[float], **kw) -> "CoordinatedScheme":
        """Extension: copy-on-write capture + staggered writes."""
        return cls(
            times, memory_ckpt=True, staggered=True, name="coord_nbcs",
            capture="cow", **kw
        )

    # -- wiring ---------------------------------------------------------------

    def make_agent(self, runtime: "CheckpointRuntime", rank: int) -> CoordinatedAgent:
        return CoordinatedAgent(self, runtime, rank)

    def install(self, runtime: "CheckpointRuntime") -> None:
        if self.staggered and not self.memory_ckpt:
            from ...core.resources import Resource

            n_servers = runtime.cluster.storage.n_servers
            self._write_slot = {
                s: Resource(
                    runtime.engine,
                    capacity=1,
                    name=(
                        "stagger-slot" if n_servers == 1 else f"stagger-slot:{s}"
                    ),
                )
                for s in range(n_servers)
            }
        if self.staggered and self.memory_ckpt:
            self._build_rings(runtime)
        if not self.policy.point_driven:
            runtime.engine.process(self._initiator(runtime), name="ckpt-initiator")

    def _build_rings(self, runtime: "CheckpointRuntime") -> None:
        """One token ring per storage server, over the ranks sharded onto
        it. The ring containing the coordinator is led by the coordinator
        (it implicitly holds the token, as in the legacy global ring); any
        other ring is led by its smallest rank. With one server this is
        exactly the legacy ring: 0 → 1 → … → N-1, stop."""
        topo = runtime.cluster.topology
        n_servers = runtime.cluster.storage.n_servers
        self._ring_next = {}
        self._ring_leader = {}
        for group in topo.server_groups(n_servers):
            ranks = list(group)
            if not ranks:
                continue
            leader = (
                self.coordinator_rank
                if self.coordinator_rank in group
                else ranks[0]
            )
            for i, r in enumerate(ranks):
                self._ring_next[r] = ranks[(i + 1) % len(ranks)]
                self._ring_leader[r] = leader

    def _ring_leader_of(self, runtime: "CheckpointRuntime", rank: int) -> int:
        if self._ring_leader is None:
            self._build_rings(runtime)
        return self._ring_leader[rank]

    def _marker_targets(self, rt: "CheckpointRuntime", rank: int) -> List[int]:
        """The channels carrying this rank's markers (and, symmetrically,
        the markers this rank waits for). ``marker_scope="peers"`` narrows
        the closure to the application's declared communication graph."""
        if self.marker_scope == "peers":
            peers_fn = getattr(rt.app, "comm_peers", None)
            if peers_fn is not None:
                peers = peers_fn(rank, rt.n_ranks)
                if peers is not None:
                    return sorted({int(p) for p in peers} - {rank})
        return [r for r in range(rt.n_ranks) if r != rank]

    # pickling: the generic Scheme.__getstate__ nulls VOLATILE_FIELDS —
    # the staggering write slot holds an engine reference; install()
    # recreates it in the restarted runtime.

    def _initiator(self, runtime: "CheckpointRuntime"):
        """Coordinator-side: kick off a global checkpoint at each time the
        policy decides (skips shots a resumed run already fired)."""
        engine = runtime.engine
        shot = 0
        while True:
            t = self.policy.next_time(runtime, self.coordinator_rank, shot)
            if t is None:
                return
            if shot < self._initiated:
                shot += 1  # fired before the halt; the memoised decision
                continue  # replays with no side effects
            if t > engine.now:
                yield engine.delay(t - engine.now)
            if runtime.finished:
                return
            shot += 1
            self._initiated += 1
            self._initiate(runtime)

    def _initiate(self, runtime: "CheckpointRuntime") -> None:
        """Start one global checkpoint round (request broadcast)."""
        comm = runtime.comms[self.coordinator_rank]
        n = self._next_n
        self._next_n += 1
        runtime.tracer.add("chk.initiations")
        runtime.tracer.event(
            "proto.request", round=n, coordinator=self.coordinator_rank
        )
        # local "request" to the coordinator's own agent ...
        runtime.agents[self.coordinator_rank].set_pending(n)
        # ... and control messages to everyone else (sent in rank order,
        # claiming the coordinator's link sequentially).
        for dst in range(runtime.n_ranks):
            if dst != self.coordinator_rank:
                runtime.spawn(
                    comm.send_control(dst, KIND_CONTROL, type=CTL_REQUEST, n=n),
                    name=f"request:{n}->{dst}",
                )

    # -- agent hooks -----------------------------------------------------------

    def on_app_deliver(self, agent: CoordinatedAgent, msg: Message) -> None:
        # learn of a newer checkpoint via the piggybacked epoch
        if msg.epoch > agent.epoch:
            agent.set_pending(msg.epoch)
        # channel-state recording: pre-cut message delivered after our cut
        rnd = agent.round
        if (
            rnd is not None
            and msg.epoch < rnd.n
            and msg.src in rnd.markers_pending
        ):
            agent.runtime.store.record_channel_msg(rnd.record, _shell_copy(msg))
            agent.runtime.tracer.add("chk.channel_msgs_recorded")

    def on_control(self, agent: CoordinatedAgent, msg: Message) -> None:
        if msg.kind == KIND_MARKER:
            self._on_marker(agent, msg)
            return
        ctype = msg.meta.get("type")
        n = msg.meta.get("n")
        if ctype == CTL_REQUEST:
            agent.set_pending(n)
        elif ctype == CTL_ACK:
            self._on_ack(agent, msg.src, n)
        elif ctype == CTL_COMMIT:
            self._apply_commit(agent, n)
        elif ctype == CTL_TOKEN:
            self._on_token(agent, n)
        elif ctype == CTL_ABORT:
            if agent.rank == self.coordinator_rank:
                self._on_abort(agent, n)
            else:
                self._apply_abort(agent, n)
        else:
            raise SimulationError(f"{self.name}: bad control message {msg!r}")

    def _on_marker(self, agent: CoordinatedAgent, msg: Message) -> None:
        n = msg.meta["n"]
        rnd = agent.round
        if rnd is not None and rnd.n == n:
            rnd.markers_pending.discard(msg.src)
            if not rnd.markers_pending:
                self._maybe_ack(agent, rnd)
            return
        if n > agent.epoch:
            # marker overtook the request: remember it and schedule the cut
            agent.early_markers.setdefault(n, set()).add(msg.src)
            agent.set_pending(n)
        # markers for already-completed rounds are stale noise; ignore.

    def _on_token(self, agent: CoordinatedAgent, n: int) -> None:
        rnd = agent.round
        if rnd is not None and rnd.n == n:
            if not rnd.token_event.triggered:
                rnd.token_event.succeed()
        elif n > agent.epoch or (rnd is None and n == agent.epoch):
            agent.early_tokens.add(n)
        # (token returning to the coordinator after its round closed: drop)

    # -- the cut -----------------------------------------------------------------

    def at_point(self, agent: CoordinatedAgent) -> Generator[Any, Any, None]:
        # point-driven policies initiate rounds from the coordinator's own
        # checkpoint points (the request broadcast happens here; the
        # coordinator's set_pending makes it cut at this same point). A
        # finished coordinator's at_point re-entries are late-cut spawns,
        # not application phases, and must not count as points.
        if (
            self.policy.point_driven
            and agent.rank == self.coordinator_rank
            and not agent.finished
            and self.policy.on_point(agent.runtime, agent.rank)
        ):
            self._initiate(agent.runtime)
        if agent.pending_cut is None or agent.pending_cut <= agent.epoch:
            return
        if agent.round is not None:
            # previous round still completing in the background; defer to
            # the next checkpoint point (sane intervals never hit this).
            return
        n = agent.pending_cut
        agent.pending_cut = None
        if n in agent.aborted_rounds:
            return  # the round was cancelled before this rank could cut
        yield from self._cut(agent, n)

    def _cut(self, agent: CoordinatedAgent, n: int) -> Generator[Any, Any, None]:
        rt = agent.runtime
        engine = rt.engine
        t0 = engine.now
        if agent.state_ref is None:
            raise SimulationError(f"rank {agent.rank}: cut with no bound state")
        snap = Snapshot.capture(agent.state_ref)
        record = CheckpointRecord(
            rank=agent.rank,
            index=n,
            snapshot=snap,
            comm_meta=agent.comm.channel_meta(),
            taken_at=t0,
            pad_bytes=getattr(rt.app, "image_bytes", 0),
        )
        if agent.inc is not None:
            # incremental: ship only dirty pages (measured, not modelled)
            is_full, state_bytes, hashes = agent.inc.plan(snap.blob)
            agent.inc.advance(is_full, hashes)
            if is_full:
                record.stored_state_bytes = record.state_bytes
                rt.tracer.add("chk.full_ckpts")
            else:
                record.stored_state_bytes = state_bytes
                record.base_index = agent.epoch
                rt.tracer.add("chk.incremental_ckpts")
                rt.tracer.add(
                    "chk.incremental_bytes_saved",
                    record.state_bytes - state_bytes,
                )
        others = self._marker_targets(rt, agent.rank)
        rnd = _Round(n, record, set(others), engine)
        rnd.markers_pending -= agent.early_markers.pop(n, set())
        agent.round = rnd
        agent.epoch = n
        agent.cuts_taken += 1
        rt.tracer.add("chk.cuts")
        rt.tracer.event("proto.cut", rank=agent.rank, round=n, scheme=self.name)
        # pre-cut messages still queued in the mailbox are in-transit state
        for m in agent.comm.mailbox.pending:
            if m.epoch < n:
                record.channel_msgs.append(_shell_copy(m))
        # markers claim the outgoing link now (FIFO after pre-cut sends,
        # before any post-cut application sends) and fly in the background.
        for dst in others:
            rt.spawn(
                agent.comm.send_control(dst, KIND_MARKER, n=n),
                name=f"marker:{n}:{agent.rank}->{dst}",
            )
        if n in agent.early_tokens:
            agent.early_tokens.discard(n)
            rnd.token_event.succeed()
        span = rt.tracer.open_span("ckpt.cut", rank=agent.rank, n=n, scheme=self.name)
        if agent.finished:
            # a finished process has nothing to block: capture is already
            # done, the write streams in the background under any variant.
            rt.spawn(
                self._bg_writer(agent, rnd, cow=False),
                name=f"ckpt-writer:{n}:r{agent.rank}",
            )
            rt.tracer.close_span(span)
            self._maybe_ack(agent, rnd)
            return
        if self.capture == "cow":
            # block only to write-protect the pages; the background writer
            # streams while application stores fault-and-copy.
            pages = max(1, record.state_bytes // PAGE_SIZE)
            yield engine.delay(pages * agent.node.params.cow_mark_cost)
            rt.spawn(
                self._bg_writer(agent, rnd, cow=True),
                name=f"ckpt-writer:{n}:r{agent.rank}",
            )
        elif self.memory_ckpt:
            # block only for the buffer copy; the checkpointer thread does
            # the rest concurrently with the application.
            yield from agent.node.mem_copy(record.write_bytes)
            rt.spawn(self._bg_writer(agent, rnd), name=f"ckpt-writer:{n}:r{agent.rank}")
        elif self.staggered:
            # blocking + staggered (NBS ablation): serialise writes on a
            # FIFO slot, granted in cut order.
            if self._write_slot is None:
                raise InvariantViolation(
                    "NBS cut without a write slot (install() not run?)",
                    scheme=self.name,
                    rank=agent.rank,
                )
            rt.cluster.set_rank_blocked(agent.rank, True)
            wrote = True
            slot_res = self._write_slot[
                rt.cluster.storage.server_index(agent.rank)
            ]
            try:
                with slot_res.request() as slot:
                    yield slot
                    rt.tracer.event(
                        "proto.write_begin",
                        rank=agent.rank,
                        round=n,
                        scheme=self.name,
                    )
                    try:
                        yield from stable_write(
                            self.ckpt_storage(agent),
                            agent.node,
                            record.write_bytes,
                            tag=f"ckpt{n}:r{agent.rank}",
                            retry=rt.retry_policy,
                            tracer=rt.tracer,
                        )
                    except StorageFault:
                        wrote = False
                    rt.tracer.event(
                        "proto.write_end", rank=agent.rank, round=n, ok=wrote
                    )
            finally:
                rt.cluster.set_rank_blocked(agent.rank, False)
            if wrote:
                self._write_finished(agent, rnd)
            else:
                self._write_failed(agent, rnd)
        else:
            rt.cluster.set_rank_blocked(agent.rank, True)
            wrote = True
            rt.tracer.event(
                "proto.write_begin", rank=agent.rank, round=n, scheme=self.name
            )
            try:
                try:
                    yield from stable_write(
                        self.ckpt_storage(agent),
                        agent.node,
                        record.write_bytes,
                        tag=f"ckpt{n}:r{agent.rank}",
                        retry=rt.retry_policy,
                        tracer=rt.tracer,
                    )
                except StorageFault:
                    wrote = False
            finally:
                rt.cluster.set_rank_blocked(agent.rank, False)
            rt.tracer.event("proto.write_end", rank=agent.rank, round=n, ok=wrote)
            if wrote:
                self._write_finished(agent, rnd)
            else:
                self._write_failed(agent, rnd)
        agent.charge_blocked(t0)
        rt.tracer.close_span(span)
        self._maybe_ack(agent, rnd)

    def _bg_writer(self, agent: CoordinatedAgent, rnd: _Round, cow: bool = False):
        rt = agent.runtime
        if cow:
            agent.node.cow_window_opened()
        wrote = True
        try:
            # the token ring only runs in the memory variants (NBMS/NBCS);
            # NBS serialises via the write slot in the blocking path.
            # Ring leaders (the coordinator's ring, plus one rank per
            # additional storage server) hold their ring's token
            # implicitly and write first.
            if (
                self.staggered
                and self.memory_ckpt
                and agent.rank != self._ring_leader_of(rt, agent.rank)
            ):
                yield rnd.token_event
            if rnd.aborted:
                return  # an abort woke us up; nothing to write
            rt.tracer.event(
                "proto.write_begin",
                rank=agent.rank,
                round=rnd.n,
                scheme=self.name,
            )
            try:
                yield from stable_write(
                    self.ckpt_storage(agent),
                    agent.node,
                    rnd.record.write_bytes,
                    tag=f"ckpt{rnd.n}:r{agent.rank}",
                    retry=rt.retry_policy,
                    tracer=rt.tracer,
                    background=True,
                )
            except StorageFault:
                wrote = False
            rt.tracer.event(
                "proto.write_end", rank=agent.rank, round=rnd.n, ok=wrote
            )
        finally:
            if cow:
                agent.node.cow_window_closed()
        if wrote:
            self._write_finished(agent, rnd)
            self._maybe_ack(agent, rnd)
        else:
            self._write_failed(agent, rnd)

    def _write_finished(self, agent: CoordinatedAgent, rnd: _Round) -> None:
        rt = agent.runtime
        if rnd.aborted:
            return  # the round died while the write was in flight
        rnd.record.written_at = rt.engine.now
        rt.store.add(rnd.record)
        rnd.write_done = True
        inj = rt.storage.fault_injector
        if inj is not None and inj.corrupts_checkpoint(agent.rank, rnd.n):
            # silent media corruption: nobody notices until recovery
            # validates the record's checksum.
            rt.store.corrupt(agent.rank, rnd.n)
            rt.tracer.add("chk.ckpts_corrupted")
        self.after_stable_write(agent, rnd.record, rnd.record.write_bytes)
        if self.staggered and self.memory_ckpt:  # NBS uses the FIFO slot
            if self._ring_next is None:
                self._build_rings(rt)
            nxt = self._ring_next[agent.rank]
            if nxt != self._ring_leader[agent.rank]:
                rt.tracer.event(
                    "proto.token_pass", round=rnd.n, src=agent.rank, dst=nxt
                )
                rt.spawn(
                    agent.comm.send_control(nxt, KIND_CONTROL, type=CTL_TOKEN, n=rnd.n),
                    name=f"token:{rnd.n}:{agent.rank}->{nxt}",
                )

    # -- round abort (a rank's write exhausted its retries) -----------------------

    def _write_failed(self, agent: CoordinatedAgent, rnd: _Round) -> None:
        """This rank cannot persist checkpoint *rnd.n*: the round can never
        gather all acks, so cancel it cleanly for everyone instead of
        wedging the protocol."""
        rt = agent.runtime
        rt.tracer.add("chk.ckpt_writes_failed")
        rt.tracer.event("proto.abort_report", rank=agent.rank, round=rnd.n)
        self._apply_abort(agent, rnd.n)
        if agent.rank == self.coordinator_rank:
            self._on_abort(agent, rnd.n)
        else:
            rt.spawn(
                agent.comm.send_control(
                    self.coordinator_rank, KIND_CONTROL, type=CTL_ABORT, n=rnd.n
                ),
                name=f"abort:{rnd.n}:r{agent.rank}",
            )

    def _on_abort(self, agent_at_coord: CoordinatedAgent, n: int) -> None:
        """Coordinator side: cancel round *n* once and broadcast the abort."""
        rt = agent_at_coord.runtime
        if n in self._aborted:
            return
        self._aborted.add(n)
        self._acks.pop(n, None)
        rt.tracer.add("chk.rounds_aborted")
        rt.tracer.event("proto.abort", round=n)
        comm = rt.comms[self.coordinator_rank]
        for dst in range(rt.n_ranks):
            if dst != self.coordinator_rank:
                rt.spawn(
                    comm.send_control(dst, KIND_CONTROL, type=CTL_ABORT, n=n),
                    name=f"abort:{n}->{dst}",
                )
        self._apply_abort(agent_at_coord, n)

    def _apply_abort(self, agent: CoordinatedAgent, n: int) -> None:
        """Rank-local cancellation of round *n* (idempotent)."""
        rt = agent.runtime
        if n not in agent.aborted_rounds:
            rt.tracer.event("proto.abort_apply", rank=agent.rank, round=n)
        agent.aborted_rounds.add(n)
        rnd = agent.round
        if rnd is not None and rnd.n == n:
            rnd.aborted = True
            if not rnd.token_event.triggered:
                # wake a staggered writer stuck waiting for a token that
                # will never come; it bails out on rnd.aborted
                rnd.token_event.succeed()
            agent.round = None
        agent.early_markers.pop(n, None)
        agent.early_tokens.discard(n)
        if agent.pending_cut is not None and agent.pending_cut <= n:
            agent.pending_cut = None
        try:
            if not rt.store.get(agent.rank, n).committed:
                rt.store.discard(agent.rank, n)
        except KeyError:
            pass
        if agent.inc is not None:
            # the incremental chain now has a hole at n; force the next
            # checkpoint to be a full one.
            agent.inc.reset()

    def _maybe_ack(self, agent: CoordinatedAgent, rnd: _Round) -> None:
        if rnd.aborted or rnd.acked or not rnd.write_done or rnd.markers_pending:
            return
        rnd.acked = True
        agent.round = None  # channel recording is complete
        rt = agent.runtime
        rt.tracer.event("proto.ack", rank=agent.rank, round=rnd.n)
        if agent.rank == self.coordinator_rank:
            self._on_ack(agent, agent.rank, rnd.n)
        else:
            rt.spawn(
                agent.comm.send_control(
                    self.coordinator_rank, KIND_CONTROL, type=CTL_ACK, n=rnd.n
                ),
                name=f"ack:{rnd.n}:r{agent.rank}",
            )

    # -- coordinator-side commit --------------------------------------------------

    def _on_ack(self, agent_at_coord: CoordinatedAgent, src: int, n: int) -> None:
        rt = agent_at_coord.runtime
        if n in self._aborted:
            return  # stale ack racing the abort broadcast
        acks = self._acks.setdefault(n, set())
        acks.add(src)
        if len(acks) < rt.n_ranks:
            return
        del self._acks[n]
        rt.tracer.event("proto.commit", round=n, acks=tuple(sorted(acks)))
        comm = rt.comms[self.coordinator_rank]
        for dst in range(rt.n_ranks):
            if dst != self.coordinator_rank:
                rt.spawn(
                    comm.send_control(dst, KIND_CONTROL, type=CTL_COMMIT, n=n),
                    name=f"commit:{n}->{dst}",
                )
        self._apply_commit(rt.agents[self.coordinator_rank], n)

    def _apply_commit(self, agent: CoordinatedAgent, n: int) -> None:
        rt = agent.runtime
        rt.tracer.event("proto.commit_apply", rank=agent.rank, round=n)
        rt.store.commit(agent.rank, n)
        # an incremental checkpoint needs its chain back to the last full
        # one; only records older than the chain base are disposable.
        keep_from = rt.store.chain_base(agent.rank, n)
        rt.store.discard_older_than(agent.rank, keep_from)
        rt.tracer.add("chk.commits")

    # -- recovery -------------------------------------------------------------------

    def recovery_line(self, runtime: "CheckpointRuntime") -> Dict[int, Any]:
        """The newest usable global checkpoint.

        A round *n* is usable when every rank holds a written, restorable
        (unquarantined, chain-intact) record *n* and at least one rank
        committed it: a processed COMMIT(n) proves the coordinator had all
        acks, hence everyone's write and markers finished — so tentative
        members are committed on the spot (2PC commit-on-recovery).
        Quarantined or missing records simply exclude their round, and the
        search falls back to the newest older committed line."""
        store = runtime.store
        common: Optional[Set[int]] = None
        committed_idx: Set[int] = set()
        for rank in range(runtime.n_ranks):
            ok = set()
            for rec in store.chain(rank):
                if rec.written_at is None or rec.quarantined:
                    continue
                if not store.chain_intact(rank, rec.index):
                    continue
                ok.add(rec.index)
                if rec.committed:
                    committed_idx.add(rec.index)
            common = ok if common is None else common & ok
        usable = {i for i in (common or set()) if i in committed_idx}
        if not usable:
            return {r: None for r in range(runtime.n_ranks)}
        n = max(usable)
        line: Dict[int, Any] = {}
        for r in range(runtime.n_ranks):
            rec = store.get(r, n)
            if not rec.committed:
                store.commit(r, n)
                runtime.tracer.add("chk.commit_on_recovery")
                runtime.tracer.event("proto.commit_on_recovery", rank=r, round=n)
            line[r] = rec
        return line

    def line_sound(self, runtime: "CheckpointRuntime", line, cut_line) -> bool:
        # a committed global round restores every rank to the *same* index
        # (orphan messages across it are tolerated: piecewise-deterministic
        # re-execution regenerates them and sequence numbers drop the dups)
        return len({cut.index for cut in cut_line.values()}) == 1

    def on_crash(self, runtime: "CheckpointRuntime") -> None:
        self._acks.clear()
        self._aborted.clear()

    def reset_agent(self, agent: SchemeAgent) -> None:
        assert isinstance(agent, CoordinatedAgent)
        agent.round = None
        agent.early_markers.clear()
        agent.early_tokens.clear()
        agent.aborted_rounds.clear()
        if agent.inc is not None:
            agent.inc.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CoordinatedScheme {self.name} times={self.times}>"


def _shell_copy(msg: Message) -> Message:
    """Copy the message shell (payload shared; payloads are immutable by
    the application contract) so later meta mutation cannot alias."""
    return dataclasses.replace(msg, meta=dict(msg.meta))

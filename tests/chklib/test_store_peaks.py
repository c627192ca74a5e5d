"""The checkpoint store's running totals against a full rescan.

``CheckpointStore`` keeps its byte and record totals up to date on every
add, discard and post-add channel-state append instead of rescanning every
chain. These tests hold the running totals, and the peaks sampled from
them at each add, to a rescan of the records actually held.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chklib import CheckpointRecord, CheckpointStore, Snapshot
from repro.chklib.runtime import CheckpointRuntime
from repro.experiments import Cell, interval_times, scheme_spec, table1_workloads
from repro.experiments.executor import run_cell
from repro.fault import FaultModel, StorageFaultSpec
from repro.machine import MachineParams
from repro.net import Message
from repro.verify.smoke import SMOKE_SCHEMES, run_smoke

N_RANKS = 3


def rescan(store):
    """(bytes, records) summed over every record the store holds."""
    records = [rec for r in range(store.n_ranks) for rec in store.chain(r)]
    return sum(rec.total_bytes for rec in records), len(records)


def message(size):
    return Message(src=0, dst=1, tag=0, payload=None, size=size)


def record(rank, index, state, pad, incremental, channel, log):
    rec = CheckpointRecord(
        rank=rank,
        index=index,
        snapshot=Snapshot.capture({"x": np.zeros(state, dtype=np.int8)}),
        comm_meta={"sent": {}, "consumed": {}, "coll_counter": 0},
        taken_at=float(index),
        pad_bytes=pad,
    )
    if incremental:
        rec.stored_state_bytes = state // 3
    rec.channel_msgs.extend(message(s) for s in channel)
    rec.log_annex.extend(message(s) for s in log)
    return rec


sizes = st.lists(st.integers(1, 400), max_size=3)
ops = st.lists(
    st.one_of(
        # create a record; add it now, or hold it back to add later
        st.tuples(
            st.just("new"), st.integers(0, N_RANKS - 1), st.integers(0, 3000),
            st.integers(0, 500), st.booleans(), sizes, sizes, st.booleans(),
        ),
        st.tuples(st.just("add_held"), st.integers(0, 20)),
        st.tuples(st.just("discard"), st.integers(0, 20)),
        st.tuples(st.just("older"), st.integers(0, N_RANKS - 1), st.integers(0, 12)),
        # append channel state to any record: held, stored or discarded
        st.tuples(st.just("channel"), st.integers(0, 40), st.integers(1, 400)),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops)
def test_running_totals_equal_rescan(steps):
    store = CheckpointStore(N_RANKS)
    next_index = [1] * N_RANKS
    made, held = [], []
    peak_bytes = peak_records = 0
    for op, *args in steps:
        added = False
        if op == "new":
            rank, state, pad, inc, channel, log, add_now = args
            rec = record(rank, next_index[rank], state, pad, inc, channel, log)
            next_index[rank] += 1
            made.append(rec)
            if add_now:
                store.add(rec)
                added = True
            else:
                held.append(rec)
        elif op == "add_held" and held:
            store.add(held.pop(args[0] % len(held)))
            added = True
        elif op == "discard":
            stored = [rec for r in range(N_RANKS) for rec in store.chain(r)]
            if stored:
                rec = stored[args[0] % len(stored)]
                assert store.discard(rec.rank, rec.index) == rec.total_bytes
        elif op == "older":
            store.discard_older_than(*args)
        elif op == "channel" and made:
            store.record_channel_msg(made[args[0] % len(made)], message(args[1]))
        if added:  # the peaks are sampled at each add, as before
            total, count = rescan(store)
            peak_bytes = max(peak_bytes, total)
            peak_records = max(peak_records, count)
        assert (store.total_bytes(), store.count()) == rescan(store)
        assert (store.peak_bytes, store.peak_checkpoints) == (peak_bytes, peak_records)


@pytest.fixture
def audited_store(monkeypatch):
    """Check the running totals against a rescan after every add and every
    channel-state append; returns ``{store: [peak_bytes, peak_records,
    post_add_appends]}`` as the rescan sees them."""
    seen = {}
    add, append = CheckpointStore.add, CheckpointStore.record_channel_msg

    def checked_add(self, rec):
        add(self, rec)
        total, count = rescan(self)
        assert (self.total_bytes(), self.count()) == (total, count)
        peaks = seen.setdefault(self, [0, 0, 0])
        peaks[0] = max(peaks[0], total)
        peaks[1] = max(peaks[1], count)

    def checked_append(self, rec, msg):
        if self._chains[rec.rank].get(rec.index) is rec:
            seen.setdefault(self, [0, 0, 0])[2] += 1
        append(self, rec, msg)
        assert (self.total_bytes(), self.count()) == rescan(self)

    monkeypatch.setattr(CheckpointStore, "add", checked_add)
    monkeypatch.setattr(CheckpointStore, "record_channel_msg", checked_append)
    return seen


def assert_peaks(seen, store):
    assert [store.peak_bytes, store.peak_checkpoints] == seen[store][:2]


def test_traced_smoke_totals_equal_rescan(audited_store):
    """The verification smoke battery: one traced run per scheme, each
    with a machine crash."""
    results = run_smoke()
    assert all(report.ok for _, report in results)
    assert len(audited_store) == len(SMOKE_SCHEMES)
    for store in audited_store:
        assert_peaks(audited_store, store)


def test_crash_and_storage_fault_cell_totals_equal_rescan(audited_store):
    """A crash plus transient storage faults under Coord_NB on SOR-128.

    At this seed and crash time one marker arrives after its receiver's
    state write finished, so channel state is appended to a record that is
    already stored: the case the store's append method exists for."""
    workload = next(w for w in table1_workloads(0.2) if w.label == "sor-128")
    machine = MachineParams.xplorer8()
    t_normal = run_cell(Cell(workload=workload, machine=machine, seed=1)).sim_time
    interval, times = interval_times(t_normal, 3)
    storage = StorageFaultSpec(
        write_fail_p=0.03, read_fail_p=0.05, corrupt_p=0.05,
        fail_reads_at=(1,), corrupt_ckpts=((0, 1),),
    )
    rt = CheckpointRuntime(
        workload.build(),
        scheme=scheme_spec("coord_nb", times, interval).build(),
        machine=machine,
        seed=1,
        fault_model=FaultModel(machine_crash_times=(0.65 * t_normal,), storage=storage),
    )
    report = rt.run()
    assert report.recoveries and report.storage_read_faults
    assert_peaks(audited_store, rt.store)
    assert audited_store[rt.store][2] >= 1

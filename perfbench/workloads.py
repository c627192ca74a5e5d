"""The benchmark's workloads: grid cells generated from a seed.

Every workload is a list of :class:`Row`s.  A row is one uncheckpointed
baseline cell plus the scheme cells derived from the baseline's simulated
run time ``T`` (checkpoint times, timer skews and crash schedules are all
fractions of ``T``, exactly as the experiment specs plan them).  The seed
sets ``Cell.seed`` and every crash and storage-fault schedule, so the
simulator only ever sees the generated cells.

:func:`guard` refuses to report numbers for a pass that stopped
exercising the layer its workload exists for.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.experiments import (
    SCHEMES_TABLE1,
    Cell,
    WorkloadSpec,
    interval_times,
    scale_machine,
    scale_workload,
    scheme_spec,
    table1_workloads,
)
from repro.fault import FaultModel, StorageFaultSpec
from repro.machine import MachineParams

#: iteration scale of ``runner --quick``.
QUICK = 0.2

PAPER8_ROWS = ("ising-256", "sor-256", "gauss-384", "asp-288", "nbody-1536", "nqueens-12")
PAPER8_ROUNDS = 3

RECOVERY8_SCHEMES = ("coord_nb", "coord_nbms", "indep_m_log", "indep_m_nolog", "cic", "indep_m_mlog")
RECOVERY8_ROUNDS = 3
RECOVERY8_TRIALS = 4
#: transient write/read failures and silent corruption of a few percent.
#: The scheduled first-read failure and the corrupted first checkpoint of
#: rank 0 make every seed exercise restore retries and quarantine.
RECOVERY8_STORAGE = StorageFaultSpec(
    write_fail_p=0.03,
    read_fail_p=0.05,
    corrupt_p=0.05,
    fail_reads_at=(1,),
    corrupt_ckpts=((0, 1),),
)

SCALE_RANKS = 1024
SCALE_SCHEMES = ("coord_nb", "coord_nbms", "indep_m")
SCALE_ROUNDS = 2


@dataclass(frozen=True)
class Row:
    """A baseline cell and the scheme cells planned from its run time."""

    baseline: Cell
    derive: Callable[[float], Tuple[Cell, ...]]
    width: int  #: number of cells ``derive`` returns


def _table1_row(label: str) -> WorkloadSpec:
    for spec in table1_workloads(QUICK):
        if spec.label == label:
            return spec
    raise KeyError(label)


def _paper8(seed: int) -> List[Row]:
    """The Table-1 comparison as users run it, one row per app family.

    App numerics dominate here, so a kernel or message-path change should
    leave it flat.  nqueens stands in for tsp: same pure-Python search
    profile at half the cost."""
    machine = MachineParams.xplorer8()
    rows = []
    for label in PAPER8_ROWS:
        w = _table1_row(label)

        def derive(t_normal: float, w: WorkloadSpec = w) -> Tuple[Cell, ...]:
            interval, times = interval_times(t_normal, PAPER8_ROUNDS)
            return tuple(
                Cell(workload=w, scheme=scheme_spec(s, times, interval), machine=machine, seed=seed)
                for s in SCHEMES_TABLE1
            )

        rows.append(Row(Cell(workload=w, machine=machine, seed=seed), derive, len(SCHEMES_TABLE1)))
    return rows


def recovery8_faults(seed: int, t_normal: float) -> List[FaultModel]:
    """One fault model per trial: a single machine crash at a seeded time
    between 0.3 and 0.7 of the failure-free run time, plus storage faults.

    Trial ``i`` crashes in the ``i``-th of equal slices of that window.
    One crash per trial, stratified, keeps the work of a pass steady
    across seeds; Poisson crash counts made it vary by half."""
    u = np.random.default_rng(seed).uniform(size=RECOVERY8_TRIALS)
    fractions = 0.3 + 0.4 * (np.arange(RECOVERY8_TRIALS) + u) / RECOVERY8_TRIALS
    return [
        FaultModel(machine_crash_times=(float(f) * t_normal,), storage=RECOVERY8_STORAGE)
        for f in fractions
    ]


def _recovery8(seed: int) -> List[Row]:
    """The chklib and machine layers the other way round: restore reads,
    retries, quarantine, rollback and replay.  Also the 8-rank workload
    where the kernel and net layers do most of the work."""
    machine = MachineParams.xplorer8()
    w = _table1_row("sor-128")

    def derive(t_normal: float) -> Tuple[Cell, ...]:
        interval, times = interval_times(t_normal, RECOVERY8_ROUNDS)
        return tuple(
            Cell(workload=w, scheme=scheme_spec(s, times, interval), machine=machine, seed=seed, fault=fault)
            for fault in recovery8_faults(seed, t_normal)
            for s in RECOVERY8_SCHEMES
        )

    width = RECOVERY8_TRIALS * len(RECOVERY8_SCHEMES)
    return [Row(Cell(workload=w, machine=machine, seed=seed), derive, width)]


def _scale1024(seed: int) -> List[Row]:
    """The N=1024 row of ``runner scale --quick``, the large-N target: the
    only workload where set-up, memory, topology and checkpoint-store
    costs show.  Coordinated schemes use peers-scoped markers, as
    ``repro.experiments.scale`` plans them."""
    w = scale_workload(SCALE_RANKS, QUICK)
    machine = scale_machine(SCALE_RANKS)

    def derive(t_normal: float) -> Tuple[Cell, ...]:
        interval, times = interval_times(t_normal, SCALE_ROUNDS)
        cells = []
        for s in SCALE_SCHEMES:
            spec = scheme_spec(s, times, interval)
            if s.startswith("coord"):
                spec = dataclasses.replace(spec, marker_scope="peers")
            cells.append(Cell(workload=w, scheme=spec, machine=machine, seed=seed))
        return tuple(cells)

    return [Row(Cell(workload=w, machine=machine, seed=seed), derive, len(SCALE_SCHEMES))]


#: workload name -> (seed -> rows); BENCHMARK.json records why each was chosen.
WORKLOADS: Dict[str, Callable[[int], List[Row]]] = {
    "paper8": _paper8,
    "recovery8": _recovery8,
    "scale1024": _scale1024,
}


class GuardError(RuntimeError):
    """A workload stopped exercising the layer it exists to measure."""


def guard(name: str, reports: Sequence, servers_written: int) -> None:
    """Raise :class:`GuardError` unless a pass exercised its workload's layer.

    *reports* are the pass's run reports; *servers_written* is the largest
    number of storage servers any single run wrote to.
    """
    if name == "paper8":
        missing = sorted(set(SCHEMES_TABLE1) - {r.scheme for r in reports})
        if missing:
            raise GuardError(f"paper8 ran no cell under {', '.join(missing)}")
    elif name == "recovery8":
        recoveries = [ev for r in reports for ev in r.recoveries]
        checks = {
            "recoveries": len(recoveries),
            "read faults": sum(r.storage_read_faults for r in reports),
            "quarantines": sum(r.checkpoints_quarantined for r in reports),
            "replayed messages": sum(ev.replayed_messages for ev in recoveries),
        }
        missing = [what for what, n in checks.items() if n == 0]
        if missing:
            raise GuardError(f"recovery8 recorded no {', '.join(missing)}")
    elif name == "scale1024":
        if any(r.n_nodes != SCALE_RANKS for r in reports):
            raise GuardError(f"scale1024 ran a cell on fewer than {SCALE_RANKS} ranks")
        if servers_written < 2:
            raise GuardError("scale1024 wrote checkpoints to a single storage server")

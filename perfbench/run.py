#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer cost of the simulator.

    python3 perfbench/run.py --workload paper8 --seed 1 --seconds 10 --trace 0

Runs one workload (see ``workloads.py``) through the simulator's public
API, the way ``runner`` does: ``GridExecutor(jobs=1, use_cache=False)``
over grid cells, one cell at a time in a closed loop, in this one
process.  Passes over all of the workload's cells repeat until
``--seconds`` have been measured; every cell's report is compared across
the passes of a run.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median host
seconds per pass), ``setup_s`` (importing ``repro`` in a fresh
interpreter, plus constructing every cell's ``CheckpointRuntime``, each
the median of several repetitions),
``sim_rate`` (simulated rank-seconds per host second inside ``run()``),
``peak_rss_mb`` and ``ok_frac`` (cells that passed the correctness gate,
out of those attempted; ``1 - ok_frac`` is the failed fraction).  The
three timings are scaled to a reference host speed sampled while they
run (``hostspeed.py``), so load from other tenants of a shared machine
does not read as a change of the program.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics: self time per layer from the spans of ``spans.py``,
layer counts from the run reports and the engine's event counter, and
the tracing overhead itself.  These times are not scaled: the sampler
would add its own time to the spans.

A cell fails the correctness gate if it raises or times out, if its
application result differs from its uncheckpointed baseline's, if any of
its recoveries restored an inconsistent line, or if its report differs
between two passes of the run.  A traced run always makes two passes per
measurement (one untraced, one traced).  An untraced run makes a second
pass only when the first took less than ``--seconds``, so a workload
whose pass outlasts the run length is compared across passes in traced
runs only.  A pass that stops exercising its workload's layer aborts the
run without a result (``workloads.guard``).

``chklib.commit_ratio`` (committed checkpoints over ranks x scheduled
rounds) is reported as measured, and the committed/scheduled counts are
printed per scheme.  On scale1024 it exposes that at the ``runner scale
--quick`` parameters Coord_NB and Coord_NBMS commit none of their 2048
scheduled checkpoints and Indep_M about 1270 (1273 at seed 3); the
workload keeps those parameters on purpose.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: kernel-selection variables: the benchmark measures the default program only.
FORBIDDEN_ENV = ("REPRO_KERNEL_BACKEND", "REPRO_KERNEL_HEAP_ONLY")
#: wall-clock budget of one cell (the executor retries a timeout once).
CELL_TIMEOUT_S = 60.0
#: fresh interpreters timing ``import repro`` for ``setup_s``.
IMPORT_SAMPLES = 11
#: constructions of every cell's ``CheckpointRuntime`` for ``setup_s``.
CONSTRUCT_SAMPLES = 5

clock = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def _import_seconds() -> float:
    """Seconds one fresh interpreter spends in ``import repro``, scaled to
    the reference host speed."""
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "from hostspeed import HostSpeed\n"
        "with HostSpeed() as speed:\n"
        "    mark, t0 = speed.mark(), time.perf_counter()\n"
        "    import repro\n"
        "    wall = time.perf_counter() - t0\n"
        "    print(wall * speed.scale(mark, wall))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def digest(report) -> str:
    payload = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def scheme_label(cell, report) -> str:
    """The report's scheme name, marked when the alias turned logging on
    (indep_m_log and indep_m_nolog both report ``indep_m``)."""
    name = report.scheme if report is not None else cell.scheme.name
    return name + "+log" if cell.scheme.logging else name


def cell_label(cell, report) -> str:
    scheme = "baseline" if cell.scheme is None else scheme_label(cell, report)
    label = f"{cell.workload.label}/{scheme}"
    if cell.fault is not None:
        crashes = ",".join(f"{t:.1f}" for t in cell.fault.machine_crash_times)
        label += f"/crash@[{crashes}]"
    return label


@dataclass
class Pass:
    """One pass over a workload's cells."""

    wall_s: float
    labels: List[str]
    cells: list  #: the Cell of each slot, or None when its baseline failed
    reports: list  #: RunReport per slot, or None when the cell failed to run
    failures: Dict[int, str]  #: slot -> why the cell failed the gate
    runtimes: List[list]  #: RuntimeProbe records
    digests: List[Optional[str]]  #: sha256 of each report's to_dict()
    scale: float = 1.0  #: host-speed scale of the pass (``hostspeed.py``)

    @property
    def run_s(self) -> float:
        return sum(r[0] for r in self.runtimes)

    @property
    def events(self) -> int:
        return sum(r[1] for r in self.runtimes)

    @property
    def servers_written(self) -> int:
        return max((r[2] for r in self.runtimes), default=0)

    def ok_reports(self) -> list:
        return [r for r in self.reports if r is not None]

    def sim_rate(self) -> float:
        rank_s = sum(r.n_nodes * r.sim_time for r in self.ok_reports())
        return rank_s / self.run_s if self.run_s else 0.0


def run_pass(workload, seed: int, probe, ledger=None) -> Pass:
    """Run every cell of *workload* (seed -> rows) once and apply the
    per-cell gate.

    With a *ledger*, the layer boundaries are traced into it while the
    cells run, and only then."""
    from repro.experiments import GridExecutor
    from spans import Patches, install

    rows = workload(seed)
    gc.collect()
    with Patches() as patches:
        if ledger is not None:
            install(ledger, patches)
        t0 = clock()
        ex = GridExecutor(jobs=1, use_cache=False, cell_timeout=CELL_TIMEOUT_S, raise_on_failure=False)
        ex.run_cells([row.baseline for row in rows])
        planned = []
        for row in rows:
            base = ex.results.get(row.baseline)
            planned.append(row.derive(base.sim_time) if base is not None else None)
        ex.run_cells([c for cells in planned if cells for c in cells])
        wall = clock() - t0
    runtimes = probe.take()

    labels, cells, reports, failures = [], [], [], {}
    for row, derived in zip(rows, planned):
        base = ex.results.get(row.baseline)
        slots = [(row.baseline, None)]
        slots += [(c, base) for c in derived] if derived is not None else [(None, None)] * row.width
        for cell, base_report in slots:
            slot = len(cells)
            report = ex.results.get(cell) if cell is not None else None
            labels.append(cell_label(cell, report) if cell is not None else f"{row.baseline.workload.label}/unplanned")
            cells.append(cell)
            reports.append(report)
            if report is None:
                failures[slot] = "raised, timed out or was never planned"
            elif base_report is not None and report.result != base_report.result:
                failures[slot] = "application result differs from the uncheckpointed baseline"
            elif any(not ev.line_consistent for ev in report.recoveries):
                failures[slot] = "a recovery restored an inconsistent line"
    digests = [digest(r) if r is not None else None for r in reports]
    return Pass(wall, labels, cells, reports, failures, runtimes, digests)


def compare_passes(passes: Sequence[Pass]) -> Dict[int, str]:
    """Every slot that failed in any pass or whose report changed."""
    failed: Dict[int, str] = {}
    first = passes[0]
    for p in passes:
        for slot, why in p.failures.items():
            failed.setdefault(slot, why)
        for slot, (a, b) in enumerate(zip(first.digests, p.digests)):
            if a != b and slot not in failed:
                failed[slot] = "report differs between two passes of the same seed"
    return failed


def workload_digest(p: Pass) -> str:
    return hashlib.sha256("\n".join(d or "-" for d in p.digests).encode()).hexdigest()


def measure(workload, seed: int, seconds: float, probe) -> Tuple[List[Pass], Dict[str, float]]:
    """Untraced passes until *seconds* have been measured, each scaled to
    the reference host speed."""
    from hostspeed import HostSpeed

    imports = [_import_seconds() for _ in range(IMPORT_SAMPLES // 2)]
    passes: List[Pass] = []
    start = clock()
    with HostSpeed() as speed:
        while not passes or clock() - start < seconds:
            mark = speed.mark()
            p = run_pass(workload, seed, probe)
            p.scale = speed.scale(mark, p.wall_s)
            passes.append(p)
        cells = [c for c in passes[0].cells if c is not None]
        constructs = [construct_seconds(cells, speed) for _ in range(CONSTRUCT_SAMPLES)]
    # the rest of the import samples after the passes, so they span the run
    imports += [_import_seconds() for _ in range(IMPORT_SAMPLES - len(imports))]
    print(f"setup: import {statistics.median(imports):.4f} s, runtime construction {statistics.median(constructs):.4f} s")
    metrics = {
        "wall_s": statistics.median(p.wall_s * p.scale for p in passes),
        "setup_s": statistics.median(imports) + statistics.median(constructs),
        "sim_rate": statistics.median(p.sim_rate() / p.scale for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return passes, metrics


def construct_seconds(cells, speed) -> float:
    """Seconds constructing the ``CheckpointRuntime`` of every cell as
    ``run_cell`` does, each scaled to the reference host speed."""
    from repro.chklib.runtime import CheckpointRuntime

    total = 0.0
    for cell in cells:
        app = cell.workload.build()
        scheme = cell.scheme.build() if cell.scheme is not None else None
        mark, t0 = speed.mark(), clock()
        CheckpointRuntime(app, scheme=scheme, machine=cell.machine, seed=cell.seed, fault_model=cell.fault)
        dt = clock() - t0
        total += dt * speed.scale(mark, dt)
    return total


def measure_traced(workload, seed: int, seconds: float, probe):
    """Pairs of (untraced, traced) passes until *seconds* have been measured."""
    from spans import Ledger

    pairs = []
    start = clock()
    while not pairs or clock() - start < seconds:
        plain = run_pass(workload, seed, probe)
        ledger = Ledger()
        traced = run_pass(workload, seed, probe, ledger)
        pairs.append((plain, traced, ledger))
    return pairs


def layer_metrics(pairs) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics: span times are medians over the traced
    passes; counts come from the (identical) reports of the first pair."""
    plain, _, ledger = pairs[0]
    reports = plain.ok_reports()
    recoveries = [ev for r in reports for ev in r.recoveries]

    def total(attr: str) -> float:
        return sum(getattr(r, attr) for r in reports)

    def counter(name: str) -> float:
        return sum(r.counters.get(name, 0) for r in reports)

    def med(fn) -> float:
        return statistics.median(fn(p, t, led) for p, t, led in pairs)

    def layer_self(layer: str):
        return med(lambda p, t, led: led.self_by_layer()[layer])

    events = plain.events
    messages = total("app_messages") + total("control_messages")
    counts = commit_counts(plain).values()
    committed = sum(c for c, _ in counts)
    scheduled = sum(s for _, s in counts)
    m: Dict[str, Tuple[float, str]] = {
        "core.self_s": (layer_self("core"), "s"),
        "core.events": (events, "count"),
        "core.events_per_s": (events / plain.run_s, "1/s"),
        "net.self_s": (layer_self("net"), "s"),
        "net.calls": (ledger.calls("net"), "count"),
        "net.messages": (messages, "count"),
        "net.bytes": (total("app_bytes") + total("control_bytes"), "B"),
        "net.events_per_message": (events / messages if messages else 0.0, "count"),
        "machine.self_s": (layer_self("machine"), "s"),
        "machine.calls": (ledger.calls("machine"), "count"),
        "machine.storage_write_ops": (counter("storage.write_ops"), "count"),
        "machine.storage_read_ops": (counter("storage.read_ops"), "count"),
        "machine.storage_bytes": (total("storage_bytes_written") + counter("storage.bytes_read"), "B"),
        "chklib.self_s": (layer_self("chklib"), "s"),
        "chklib.store_s": (med(lambda p, t, led: led.self_of("chklib", "CheckpointStore.")), "s"),
        "chklib.recoveries": (len(recoveries), "count"),
        "chklib.replayed_messages": (sum(ev.replayed_messages for ev in recoveries), "count"),
        "chklib.rounds_aborted": (total("rounds_aborted"), "count"),
        "chklib.quarantined": (total("checkpoints_quarantined"), "count"),
        "chklib.checkpoints_committed": (committed, "count"),
        "chklib.commit_ratio": (committed / scheduled if scheduled else 0.0, "ratio"),
        "chklib.blocked_sim_s": (total("blocked_time"), "sim_s"),
        "apps.self_s": (layer_self("apps"), "s"),
        "apps.resumes": (ledger.calls("apps", resumes=True), "count"),
        "fault.self_s": (layer_self("fault"), "s"),
        "fault.injected": (
            total("storage_write_faults")
            + total("storage_read_faults")
            + counter("chk.ckpts_corrupted")
            + counter("fault.crashes"),
            "count",
        ),
        "fault.retries": (total("storage_write_retries") + total("storage_read_retries"), "count"),
        "experiments.self_s": (layer_self("experiments"), "s"),
        "trace.overhead_frac": (
            statistics.median(t.wall_s for _, t, _ in pairs) / statistics.median(p.wall_s for p, _, _ in pairs) - 1.0,
            "ratio",
        ),
        "trace.unattributed_share": (
            med(lambda p, t, led: (t.wall_s - sum(led.self_by_layer().values())) / t.wall_s),
            "ratio",
        ),
    }
    return m


def commit_counts(p: Pass) -> Dict[str, Tuple[int, int]]:
    """Committed and scheduled (ranks x rounds) checkpoints per scheme.

    paper8 and scale1024 cells run failure-free; on recovery8 the
    committed count includes checkpoints taken again after a rollback."""
    counts: Dict[str, Tuple[int, int]] = {}
    for cell, rep in zip(p.cells, p.reports):
        if rep is None or cell.scheme is None:
            continue
        name = scheme_label(cell, rep)
        c, s = counts.get(name, (0, 0))
        counts[name] = (c + rep.checkpoints_committed, s + rep.n_nodes * len(cell.scheme.times))
    return counts


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    set_vars = [v for v in FORBIDDEN_ENV if v in os.environ]
    if set_vars:
        raise BenchError(f"refusing to run with {', '.join(set_vars)} set: the benchmark measures the default kernel")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")

    from spans import Patches, RuntimeProbe
    from workloads import WORKLOADS, GuardError, guard

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r} (have {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    probe = RuntimeProbe()
    with Patches() as patches:
        probe.install(patches)
        if args.trace:
            pairs = measure_traced(workload, args.seed, args.seconds, probe)
            passes = [p for pair in pairs for p in pair[:2]]
        else:
            passes, e2e = measure(workload, args.seed, args.seconds, probe)
    try:
        for p in passes:
            guard(args.workload, p.ok_reports(), p.servers_written)
    except GuardError as exc:
        raise BenchError(str(exc)) from None

    failed = compare_passes(passes)
    first = passes[0]
    attempted = len(first.labels)
    print(f"workload {args.workload} seed={args.seed}: {attempted} cells, {len(passes)} passes")
    if not args.trace:
        for p in passes:
            print(f"  pass: {p.wall_s:.3f} host s, host-speed scale {p.scale:.4f}")
    print(f"report digest {workload_digest(first)}")
    for slot, why in sorted(failed.items()):
        print(f"FAILED {first.labels[slot]}: {why}")
    for scheme, (c, s) in commit_counts(first).items():
        print(f"  {scheme:<14} committed {c} of {s} scheduled checkpoints")
    if args.trace:
        metrics = layer_metrics(pairs)
        print("spans of the first traced pass:")
        print("\n".join(pairs[0][2].table()))
    else:
        e2e["ok_frac"] = 1.0 - len(failed) / attempted
        units = {"wall_s": "s", "setup_s": "s", "sim_rate": "rank_s/s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
        metrics = {name: (value, units[name]) for name, value in e2e.items()}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)

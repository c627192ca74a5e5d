"""Fidelity of the benchmark's traced run.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import signal
import sys
import time

import pytest

import hostspeed
import run
import spans

sys.path.insert(0, str(run.SRC))

from repro.core.engine import Engine  # noqa: E402
from repro.experiments import Cell, WorkloadSpec, interval_times, scheme_spec  # noqa: E402
from repro.fault import FaultModel, StorageFaultSpec  # noqa: E402
from repro.machine import MachineParams  # noqa: E402

import workloads  # noqa: E402


def _echo(log):
    """Yields running totals; a thrown ValueError is answered, not raised."""
    total = 0
    try:
        while True:
            try:
                got = yield total
            except ValueError as exc:
                got = yield f"caught {exc}"
            if got is None:
                return total
            total += got
    finally:
        log.append("finally")


def _drive(gen):
    """The observable protocol of *gen*: yields, return value, exceptions."""
    seen = [next(gen), gen.send(2), gen.send(3), gen.throw(ValueError("x")), gen.send(4)]
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    seen.append(("returned", stop.value.value))
    return seen


def _wrapped(ledger, fn):
    return ledger.wrap("apps", fn.__name__, fn)


def test_resumable_passes_the_generator_protocol_through():
    ledger = spans.Ledger()
    raw_log, traced_log = [], []
    proxy = _wrapped(ledger, _echo)(traced_log)
    assert isinstance(proxy, spans.Resumable)
    assert _drive(proxy) == _drive(_echo(raw_log))
    assert traced_log == raw_log == ["finally"]
    # next, three sends, one throw and the final send: six resumes
    assert ledger.entries[("apps", "_echo (resume)")].calls == 6


def test_resumable_close_and_uncaught_throw():
    ledger = spans.Ledger()
    log = []
    proxy = _wrapped(ledger, _echo)(log)
    next(proxy)
    proxy.close()
    assert log == ["finally"]
    proxy = _wrapped(ledger, _echo)(log)
    next(proxy)
    with pytest.raises(KeyError):
        proxy.throw(KeyError("boom"))


def test_yield_from_a_resumable_returns_its_value():
    ledger = spans.Ledger()

    def outer(log):
        result = yield from _wrapped(ledger, _echo)(log)
        return ("outer", result)

    assert _drive(outer([])) == _drive(_echo([]))[:-1] + [("returned", ("outer", 9))]


def test_self_times_and_unattributed_add_up_to_the_wall():
    now = [0.0]
    ledger = spans.Ledger(clock=lambda: now[0])

    def inner():
        now[0] += 5.0

    def outer():
        now[0] += 1.0
        traced_inner()
        traced_inner()
        now[0] += 2.0

    traced_inner = ledger.wrap("net", "inner", inner)
    traced_outer = ledger.wrap("apps", "outer", outer)
    start = now[0]
    traced_outer()
    now[0] += 4.0  # outside any span: unattributed
    wall = now[0] - start
    by_layer = ledger.self_by_layer()
    assert by_layer["net"] == 10.0
    assert by_layer["apps"] == 3.0
    assert sum(by_layer.values()) + 4.0 == wall


def test_host_speed_scale_weights_samples_and_drops_the_handler_time():
    speed = hostspeed.HostSpeed()
    speed.samples = [hostspeed.PROBE_REF_S, 2 * hostspeed.PROBE_REF_S]
    speed.stolen_s = 1.0
    # 10 s of wall, 1 s of it in the handler; the host ran at 1 and 1/2
    assert speed.scale((0, 0.0), 10.0) == pytest.approx(0.9 * 0.75)
    # a window without samples takes one
    assert speed.scale(speed.mark(), 1.0) > 0.0
    assert len(speed.samples) == 3


def test_host_speed_samples_on_cpu_time_and_restores_the_timer():
    old = signal.getsignal(signal.SIGPROF)
    with hostspeed.HostSpeed() as speed:
        t0 = time.process_time()
        while time.process_time() - t0 < 10 * hostspeed.INTERVAL_S:
            pass
    assert len(speed.samples) >= 5
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is old


def _tiny_workload():
    """SOR-96 on 8 ranks: three scheme families, one crash, storage faults."""
    machine = MachineParams.xplorer8()
    w = WorkloadSpec.of("sor-96", "sor", n=96, iters=40, flops_per_cell=40.0)
    fault_spec = StorageFaultSpec(read_fail_p=0.1, corrupt_p=0.1, fail_reads_at=(1,))

    def rows(seed):
        def derive(t_normal):
            interval, times = interval_times(t_normal, 3)
            fault = FaultModel(machine_crash_times=(0.6 * t_normal,), storage=fault_spec)
            return tuple(
                Cell(workload=w, scheme=scheme_spec(s, times, interval), machine=machine, seed=seed, fault=fault)
                for s in ("coord_nbms", "indep_m_log", "cic")
            )

        return [workloads.Row(Cell(workload=w, machine=machine, seed=seed), derive, 3)]

    return rows


def test_traced_pass_reports_match_untraced_and_time_adds_up():
    workload = _tiny_workload()
    original_run = vars(Engine)["run"]
    with spans.Patches() as patches:
        probe = spans.RuntimeProbe()
        probe.install(patches)
        plain = run.run_pass(workload, 3, probe)
        ledger = spans.Ledger()
        traced = run.run_pass(workload, 3, probe, ledger)
    assert vars(Engine)["run"] is original_run
    assert not plain.failures and not traced.failures
    assert sum(len(r.recoveries) for r in plain.ok_reports()) == 3
    assert traced.digests == plain.digests
    assert not run.compare_passes([plain, traced])
    attributed = sum(ledger.self_by_layer().values())
    assert 0.0 <= traced.wall_s - attributed < 0.05 * traced.wall_s
    for layer in ("core", "apps", "net", "machine", "chklib", "fault", "experiments"):
        assert ledger.self_by_layer()[layer] > 0.0, layer


@pytest.mark.parametrize("var", run.FORBIDDEN_ENV)
def test_refuses_a_selected_kernel_backend(monkeypatch, var):
    monkeypatch.setenv(var, "1")
    with pytest.raises(run.BenchError, match=var):
        run.main(["--workload", "paper8", "--seed", "0", "--seconds", "1"])

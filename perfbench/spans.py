"""Span tracing of the simulator's layers, installed from outside the program.

A traced pass replaces each layer's public entry points with wrappers
that open a span on entry and close it on exit.  Spans nest on one stack:
a span's *self time* is its duration minus the time covered by the spans
it encloses, so the layers' self times plus the time outside any span add
up to the pass's wall time.  A call that returns a generator hands back a
:class:`Resumable` proxy instead, which times every ``send``/``throw`` as a
span of the same layer — that is where a coroutine's work actually runs.

Spans are folded into per-entry-point aggregates as they close, so memory
stays constant however many spans a pass opens; :meth:`Ledger.table`
writes them out at the end.  :class:`Patches` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from typing import Any, Callable, Dict, Iterable, List, Tuple

_GENERATOR = types.GeneratorType

#: the layers, in report order (``repro`` subpackages on the call path).
LAYERS = ("core", "apps", "net", "machine", "chklib", "fault", "experiments")


class EntryPoint:
    """The aggregated spans of one traced entry point."""

    __slots__ = ("layer", "name", "calls", "total_s", "self_s")

    def __init__(self, layer: str, name: str) -> None:
        self.layer = layer
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Ledger:
    """The open-span stack and the per-entry-point aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.entries: Dict[Tuple[str, str], EntryPoint] = {}
        #: open spans, innermost last: [seconds covered by child spans].
        self.stack: List[list] = []

    def entry(self, layer: str, name: str) -> EntryPoint:
        key = (layer, name)
        if key not in self.entries:
            self.entries[key] = EntryPoint(layer, name)
        return self.entries[key]

    def timer(self, ep: EntryPoint) -> Callable[..., Any]:
        """``timed(step, *args)``: run ``step(*args)`` as one span of *ep*."""
        stack, clock = self.stack, self.clock

        def timed(step: Callable, *args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return step(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                ep.calls += 1
                ep.total_s += dt
                ep.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return timed

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """*fn* with every call traced as a span of *layer*; a returned
        generator comes back wrapped in a :class:`Resumable`."""
        timed = self.timer(self.entry(layer, name))
        resume = self.timer(self.entry(layer, name + " (resume)"))

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            result = timed(fn, *args, **kwargs)
            if type(result) is _GENERATOR:
                return Resumable(resume, result)
            return result

        return traced

    def self_by_layer(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for ep in self.entries.values():
            out[ep.layer] = out.get(ep.layer, 0.0) + ep.self_s
        return out

    def calls(self, layer: str, resumes: bool = False) -> int:
        """Spans opened in *layer*: calls, or generator resumes."""
        return sum(
            ep.calls
            for ep in self.entries.values()
            if ep.layer == layer and ep.name.endswith(" (resume)") == resumes
        )

    def self_of(self, layer: str, prefix: str) -> float:
        return sum(
            ep.self_s
            for ep in self.entries.values()
            if ep.layer == layer and ep.name.startswith(prefix)
        )

    def table(self) -> List[str]:
        """The aggregates as text lines, busiest entry point first."""
        lines = [f"{'layer':<12}{'entry point':<44}{'spans':>10}{'total_s':>11}{'self_s':>11}"]
        for ep in sorted(self.entries.values(), key=lambda e: -e.self_s):
            if ep.calls:
                lines.append(f"{ep.layer:<12}{ep.name:<44}{ep.calls:>10}{ep.total_s:>11.4f}{ep.self_s:>11.4f}")
        return lines


class Resumable:
    """A generator stand-in that times each resume as a span.

    ``send``, ``throw``, ``close`` and the ``StopIteration`` that carries
    the return value pass through unchanged, so ``yield from`` and the
    kernel's process driver see the same generator protocol.
    """

    __slots__ = ("_timed", "_gen")

    def __init__(self, timed: Callable[..., Any], gen: Any) -> None:
        self._timed = timed
        self._gen = gen

    def __iter__(self) -> "Resumable":
        return self

    def __next__(self) -> Any:
        return self._timed(self._gen.send, None)

    def send(self, value: Any) -> Any:
        return self._timed(self._gen.send, value)

    def throw(self, *exc: Any) -> Any:
        return self._timed(self._gen.throw, *exc)

    def close(self) -> None:
        self._gen.close()


class Patches:
    """Attribute replacements on classes and modules, undone in reverse."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str, new: Any) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def restore(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


def _importers(fn: Callable) -> List[types.ModuleType]:
    """Every loaded ``repro`` module that holds *fn* under its own name
    (its defining module and each ``from ... import`` of it)."""
    return [
        mod
        for name, mod in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and mod is not None
        and vars(mod).get(fn.__name__) is fn
    ]


def trace_method(ledger: Ledger, patches: Patches, layer: str, cls: type, name: str) -> None:
    raw = vars(cls)[name]
    label = f"{cls.__name__}.{name}"
    if isinstance(raw, (classmethod, staticmethod)):
        patches.replace(cls, name, type(raw)(ledger.wrap(layer, label, raw.__func__)))
    else:
        patches.replace(cls, name, ledger.wrap(layer, label, raw))


def trace_function(ledger: Ledger, patches: Patches, layer: str, fn: Callable) -> None:
    traced = ledger.wrap(layer, f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}", fn)
    for mod in _importers(fn):
        patches.replace(mod, fn.__name__, traced)


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _public_functions(owner: Any) -> List[str]:
    return [
        name
        for name, value in vars(owner).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, (classmethod, staticmethod)))
    ]


#: checkpoint-agent hooks on the communication path.
AGENT_HOOKS = ("on_send", "on_deliver", "on_control", "on_consume", "send_extra")


def boundaries() -> List[Tuple[str, Any, Tuple[str, ...]]]:
    """``(layer, class or module, attribute names)`` for every span boundary.

    ``CheckpointRuntime.run`` and ``Cluster.__init__`` are traced too, so
    scheme installation, report assembly and machine construction are
    charged to chklib and machine rather than to the executor."""
    import repro.chklib.recovery as recovery
    import repro.experiments.grid as grid
    import repro.net.collectives as collectives
    from repro.apps import Application
    from repro.chklib.runtime import CheckpointRuntime, Ctx, RunReport
    from repro.chklib.schemes.registry import REGISTRY
    from repro.chklib.storage_mgr import CheckpointStore
    from repro.core.engine import Engine
    from repro.experiments.executor import GridExecutor
    from repro.fault.injection import StorageFaultInjector
    from repro.machine.cluster import Cluster
    from repro.machine.node import Node
    from repro.machine.storage import StableStorage
    from repro.machine.storage_plane import StoragePlane
    from repro.net.api import Comm, CommAgent
    from repro.net.mailbox import Mailbox
    from repro.net.transport import Transport

    def fns(module: types.ModuleType) -> Tuple[str, ...]:
        return tuple(n for n in module.__all__ if inspect.isfunction(getattr(module, n)))

    out: List[Tuple[str, Any, Tuple[str, ...]]] = [("core", Engine, ("run",))]
    out += [("apps", cls, ("run",)) for cls in _subclasses(Application) if "run" in vars(cls)]
    out += [
        ("net", Comm, ("send", "isend", "recv", "send_control")),
        ("net", collectives, fns(collectives)),
        ("net", Transport, ("send",)),
        ("net", Mailbox, ("deliver", "recv")),
        ("machine", Cluster, ("__init__", "message_time", "network_pressure")),
        ("machine", Node, ("compute",)),
        ("machine", StableStorage, ("write", "read")),
        ("machine", StoragePlane, ("write", "read", "drain")),
        ("chklib", Ctx, ("checkpoint_point",)),
    ]
    scheme_classes = {f.scheme_cls for f in REGISTRY.families()}
    scheme_classes |= {sub for cls in list(scheme_classes) for sub in _subclasses(cls)}
    hooked = list(_subclasses(CommAgent)) + sorted(scheme_classes, key=lambda c: c.__qualname__)
    for cls in hooked:
        own = tuple(h for h in AGENT_HOOKS if h in vars(cls))
        if own:
            out.append(("chklib", cls, own))
    out += [
        ("chklib", CheckpointStore, tuple(_public_functions(CheckpointStore))),
        ("chklib", recovery, fns(recovery)),
        ("chklib", CheckpointRuntime, ("__init__", "run")),
        ("fault", StorageFaultInjector, tuple(_public_functions(StorageFaultInjector))),
        ("experiments", GridExecutor, ("run_cells",)),
        ("experiments", grid, ("cell_key",)),
        ("experiments", RunReport, ("to_dict", "from_dict")),
    ]
    return out


def install(ledger: Ledger, patches: Patches) -> None:
    """Trace every boundary of :func:`boundaries` into *ledger*."""
    for layer, owner, names in boundaries():
        for name in names:
            if isinstance(owner, types.ModuleType):
                trace_function(ledger, patches, layer, getattr(owner, name))
            else:
                trace_method(ledger, patches, layer, owner, name)


class RuntimeProbe:
    """Times each ``CheckpointRuntime.run()``.

    Installed on every pass, traced or not: it adds two clock reads per
    cell.  After ``run()`` it also reads the engine's event sequence
    counter and how many storage servers the run wrote to.
    """

    def __init__(self) -> None:
        #: one record per run: [run_s, events, servers_written].
        self.records: List[list] = []

    def install(self, patches: Patches) -> None:
        from repro.chklib.runtime import CheckpointRuntime

        run = CheckpointRuntime.run
        clock, records = time.perf_counter, self.records

        @functools.wraps(run)
        def timed_run(rt: Any, *args: Any, **kwargs: Any) -> Any:
            t0 = clock()
            report = run(rt, *args, **kwargs)
            dt = clock() - t0
            records.append([dt, rt.engine._seq, sum(1 for s in rt.storage.servers if s.write_ops)])
            return report

        patches.replace(CheckpointRuntime, "run", timed_run)

    def take(self) -> List[list]:
        """The records since the last call, and forget them."""
        out = self.records[:]
        self.records.clear()
        return out

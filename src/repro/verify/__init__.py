"""Three-layer verification subsystem for the reproduction.

1. **Model checking** (:mod:`.model`, :mod:`.explorer`) — exhaustive
   explicit-state exploration of abstracted protocol state machines: the
   coordinated two-phase commit (with crash/abort at every reachable
   state) and the staggered token ring. Small-N (2–4 ranks) but complete:
   every interleaving of message deliveries, write completions and
   failures is visited.
2. **Trace invariants** (:mod:`.invariants`, :mod:`.trace_check`) —
   declarative checkers replayed over the structured event streams the
   simulator records (FIFO delivery, 2PC commit rules, staggered-write
   mutual exclusion, GC line safety, recovery-line soundness). Runnable
   post-hoc on any run via ``--verify`` on the experiment runner.
3. **Whole-program static analysis** (:mod:`.analyze`) — multi-pass
   analysis over one shared front-end (per-module ASTs, project symbol
   table, generator classification): the sim-hygiene rules (no
   wall-clock or unseeded-randomness leaks, no bare runtime ``assert``,
   no engine primitive called without ``yield``), yield-discipline dataflow,
   cleanup-mutation detection (the PR 5 ``_quiesced`` bug class),
   resume-capture completeness against the classes' RESUME_FIELDS
   manifests, trace-event conformance against ``EVENT_KINDS``, and
   nondeterminism taint tracking — gated by the committed
   ``ANALYZE_BASELINE.json`` in both directions.

CLI: ``python -m repro.verify [model|smoke|trace|analyze|all]``;
each layer has a distinct failure exit code (model=3, trace=4,
analyze=5).
"""

from .analyze import AnalysisReport, Baseline, Finding, analyze
from .explorer import ExplorationResult, Violation, explore
from .invariants import RunMeta, TraceViolation, default_checkers
from .model import (
    CicIndexModel,
    ModelBugs,
    SenderLogModel,
    TokenRingModel,
    TwoPhaseCommitModel,
)
from .trace_check import (
    TraceReport,
    check_runtime,
    check_trace,
    meta_for_runtime,
    runtime_verification_enabled,
    set_runtime_verification,
    verified,
)

__all__ = [
    "AnalysisReport",
    "Baseline",
    "Finding",
    "analyze",
    "ExplorationResult",
    "Violation",
    "explore",
    "RunMeta",
    "TraceViolation",
    "default_checkers",
    "CicIndexModel",
    "ModelBugs",
    "SenderLogModel",
    "TokenRingModel",
    "TwoPhaseCommitModel",
    "TraceReport",
    "check_runtime",
    "check_trace",
    "meta_for_runtime",
    "runtime_verification_enabled",
    "set_runtime_verification",
    "verified",
]

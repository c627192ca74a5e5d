"""NBODY: gravitational N-body with a ring pipeline.

Bodies are block-partitioned; each step circulates the body blocks around
a ring so every rank accumulates forces against every block (systolic
all-pairs), then integrates with a leapfrog step. Force accumulation order
is fixed (own block, then blocks from rank-1, rank-2, …), so a recovered
run and the block-ordered serial reference are bit-identical.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

import numpy as np

from ..core.rng import derive_seed
from ..net.collectives import gather
from .base import Application

__all__ = ["NBody"]

_TAG_RING = 3
_G = 1.0
_EPS2 = 1e-3  #: softening


def _partition(n: int, size: int) -> List[Tuple[int, int]]:
    base, extra = divmod(n, size)
    out, lo = [], 0
    for r in range(size):
        cnt = base + (1 if r < extra else 0)
        out.append((lo, lo + cnt))
        lo += cnt
    return out


def _init_block(rank: int, count: int, seed: int) -> Tuple[np.ndarray, ...]:
    rng = np.random.default_rng(derive_seed(seed, f"nbody.init.r{rank}"))
    pos = rng.uniform(-1.0, 1.0, size=(count, 3))
    vel = rng.uniform(-0.1, 0.1, size=(count, 3))
    mass = rng.uniform(0.5, 1.5, size=count)
    return pos, vel, mass


def _block_forces(
    tpos: np.ndarray, spos: np.ndarray, smass: np.ndarray
) -> np.ndarray:
    """Softened gravitational force of source block on target block.

    Bit-identical to ``(dr * w[:, :, None]).sum(axis=1)`` over a
    ``(t, s, 3)`` ``dr``: ``r2`` adds the squared components left to
    right, and the source axis is reduced as a middle axis, which numpy
    walks sequentially over ``s`` (a last-axis sum would be pairwise and
    round differently).
    """
    if tpos.size == 0 or spos.size == 0:
        return np.zeros_like(tpos)
    dr = spos.T[:, :, None] - tpos.T[:, None, :]  # (3, s, t)
    x, y, z = dr
    r2 = x * x + y * y + z * z + _EPS2
    w = smass[:, None] * r2 ** -1.5  # (s, t)
    return (_G * (dr * w).sum(axis=1)).T


class NBody(Application):
    """``n`` bodies for ``iters`` leapfrog steps (``dt`` each)."""

    name = "nbody"

    def __init__(self, n: int = 512, iters: int = 10, dt: float = 1e-3,
                 flops_per_pair: float = 24.0) -> None:
        if n < 1:
            raise ValueError(f"need at least one body, got {n}")
        self.n = int(n)
        self.iters = int(iters)
        self.dt = float(dt)
        self.flops_per_pair = float(flops_per_pair)

    def describe(self) -> str:
        return f"nbody(n={self.n}, iters={self.iters})"

    # -- SPMD -----------------------------------------------------------------

    def make_state(self, rank: int, size: int, seed: int) -> Dict[str, Any]:
        if self.n < size:
            raise ValueError(f"n={self.n} bodies on {size} ranks")
        lo, hi = _partition(self.n, size)[rank]
        pos, vel, mass = _init_block(rank, hi - lo, seed)
        return {"iter": 0, "pos": pos, "vel": vel, "mass": mass}

    def run(self, ctx, state: Dict[str, Any]) -> Generator[Any, Any, Any]:
        comm = ctx.comm
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        my = state["pos"].shape[0]
        pair_flops = self.flops_per_pair * my * (self.n / max(1, ctx.size))

        while state["iter"] < self.iters:
            pos, vel, mass = state["pos"], state["vel"], state["mass"]
            force = _block_forces(pos, pos, mass)
            yield from ctx.compute(pair_flops)
            # copy: the payload must stay immutable while in flight /
            # recorded in channel state, but we mutate pos at step end.
            travel = (pos.copy(), mass.copy())
            for _hop in range(ctx.size - 1):
                yield from comm.send(right, travel, tag=_TAG_RING)
                msg = yield from comm.recv(source=left, tag=_TAG_RING)
                travel = msg.payload
                force += _block_forces(pos, travel[0], travel[1])
                yield from ctx.compute(pair_flops)
            # leapfrog (kick-drift with acceleration = F/m)
            vel += (force / mass[:, None]) * self.dt
            pos += vel * self.dt
            state["iter"] += 1
            yield from ctx.checkpoint_point()

        blocks = yield from gather(comm, (state["pos"], state["vel"]), root=0)
        if ctx.rank == 0:
            all_pos = np.concatenate([b[0] for b in blocks], axis=0)
            all_vel = np.concatenate([b[1] for b in blocks], axis=0)
            return {
                "pos_sum": float(all_pos.sum()),
                "vel_sum": float(all_vel.sum()),
                "n": self.n,
            }
        return None

    # -- reference --------------------------------------------------------------------

    def serial_result(self, size: int, seed: int) -> Any:
        """Same block decomposition and the same per-target accumulation
        order (own block, then left neighbour's, then its left, …), so the
        floating-point result is identical to the parallel run."""
        parts = _partition(self.n, size)
        blocks = [
            _init_block(r, hi - lo, seed) for r, (lo, hi) in enumerate(parts)
        ]
        pos = [b[0] for b in blocks]
        vel = [b[1] for b in blocks]
        mass = [b[2] for b in blocks]
        for _ in range(self.iters):
            forces = []
            for r in range(size):
                f = _block_forces(pos[r], pos[r], mass[r])
                for hop in range(1, size):
                    src = (r - hop) % size
                    f += _block_forces(pos[r], pos[src], mass[src])
                forces.append(f)
            for r in range(size):
                vel[r] += (forces[r] / mass[r][:, None]) * self.dt
                pos[r] += vel[r] * self.dt
        all_pos = np.concatenate(pos, axis=0)
        all_vel = np.concatenate(vel, axis=0)
        return {
            "pos_sum": float(all_pos.sum()),
            "vel_sum": float(all_vel.sum()),
            "n": self.n,
        }

"""ISING: Metropolis simulation of a 2-D spin glass (Edwards–Anderson).

Random bond couplings (the "glass") live in each rank's state next to the
spins, so the checkpoint size grows with the lattice — matching the paper's
use of ISING at many sizes as the state-size sweep of Table 1.

Checkerboard (two-colour) Metropolis sweeps on a row-block-partitioned
lattice with halo exchange before each half-sweep — the same tightly-coupled
neighbour structure as SOR, plus per-rank random streams that live *in the
checkpointed state* (the piecewise-determinism contract: replay after a
rollback draws the same random numbers).

Spins are integers and acceptance thresholds compare identically under
replay, so the parallel result, the serial reference and any post-recovery
re-execution agree exactly.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Dict, Generator, List, Tuple

import numpy as np

from ..core.rng import derive_seed
from ..net.collectives import reduce
from .base import Application

__all__ = ["Ising"]

_TAG_UP = 1
_TAG_DOWN = 2


def _partition(rows: int, size: int) -> List[Tuple[int, int]]:
    base, extra = divmod(rows, size)
    out, lo = [], 0
    for r in range(size):
        cnt = base + (1 if r < extra else 0)
        out.append((lo, lo + cnt))
        lo += cnt
    return out


def _couplings(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Full coupling fields: ``jh[i, j]`` bonds (i,j)-(i,j+1 mod n),
    ``jv[i, j]`` bonds (i,j)-(i+1 mod n,j). Gaussian disorder."""
    rng = np.random.default_rng(derive_seed(seed, "ising.bonds"))
    jh = rng.normal(0.0, 1.0, size=(n, n))
    jv = rng.normal(0.0, 1.0, size=(n, n))
    return jh, jv


def _init_spins(rank: int, lo: int, hi: int, n: int, seed: int) -> np.ndarray:
    """This rank's rows plus two halo rows, spins in {-1, +1}."""
    rng = np.random.default_rng(derive_seed(seed, f"ising.init.r{rank}"))
    block = np.empty((hi - lo + 2, n), dtype=np.int8)
    block[1:-1] = rng.choice(np.array([-1, 1], dtype=np.int8), size=(hi - lo, n))
    block[0] = 0  # halos filled by the first exchange
    block[-1] = 0
    return block


@functools.lru_cache(maxsize=64)
def _checkerboard(m: int, n: int, parity: int) -> np.ndarray:
    """Read-only ``(m, n)`` mask of the sites with ``(i + j) % 2 == parity``."""
    mask = (np.arange(m)[:, None] + np.arange(n)[None, :]) % 2 == parity
    mask.setflags(write=False)
    return mask


def _sweep_colour(
    block: np.ndarray,
    jh_rows: np.ndarray,
    jv_rows: np.ndarray,
    row_offset: int,
    colour: int,
    beta: float,
    rng: np.random.Generator,
) -> None:
    """Metropolis-update all *colour* sites of the interior rows in place.

    ``jh_rows`` covers global rows ``row_offset .. row_offset+m-1``;
    ``jv_rows`` covers ``row_offset-1 .. row_offset+m-1`` (one extra row
    above, for the bond to the upper halo). Same-colour sites share no
    bonds, so the vectorised simultaneous update is an exact sweep.
    """
    m, n = block.shape[0] - 2, block.shape[1]
    if m <= 0:
        return
    interior = block[1:-1]
    up = block[0:-2]
    down = block[2:]
    left = np.roll(interior, 1, axis=1)
    right = np.roll(interior, -1, axis=1)
    j_up = jv_rows[:-1]  # bond to row above
    j_down = jv_rows[1:]  # bond to row below
    j_right = jh_rows  # bond to column j+1
    j_left = np.roll(jh_rows, 1, axis=1)  # bond to column j-1
    field = j_up * up + j_down * down + j_left * left + j_right * right
    d_e = 2.0 * interior * field  # energy cost of flipping
    mask = _checkerboard(m, n, (row_offset + colour) % 2)
    # one uniform draw per lattice site (fixed count -> deterministic
    # stream consumption independent of acceptance)
    u = rng.random(size=interior.shape)
    flip = mask & (u < np.exp(-beta * np.maximum(d_e, 0.0)))
    np.negative(interior, out=interior, where=flip)


class Ising(Application):
    """2-D spin glass: ``n x n`` lattice, ``iters`` full Metropolis sweeps."""

    name = "ising"

    def __init__(self, n: int = 256, iters: int = 100, beta: float = 0.8,
                 flops_per_cell: float = 50.0) -> None:
        if n < 2:
            raise ValueError(f"lattice too small: {n}")
        self.n = int(n)
        self.iters = int(iters)
        self.beta = float(beta)
        self.flops_per_cell = float(flops_per_cell)

    def describe(self) -> str:
        return f"ising(n={self.n}, iters={self.iters})"

    # -- SPMD ---------------------------------------------------------------

    def make_state(self, rank: int, size: int, seed: int) -> Dict[str, Any]:
        if self.n < size:
            raise ValueError(f"lattice n={self.n} smaller than ranks ({size})")
        lo, hi = _partition(self.n, size)[rank]
        jh, jv = _couplings(self.n, seed)
        return {
            "iter": 0,
            "lo": lo,
            "hi": hi,
            "spins": _init_spins(rank, lo, hi, self.n, seed),
            # bond slices this rank needs (periodic row indexing)
            "jh": jh[lo:hi].copy(),
            "jv": jv[np.arange(lo - 1, hi) % self.n].copy(),
            "rng": np.random.default_rng(derive_seed(seed, f"ising.sweep.r{rank}")),
        }

    def run(self, ctx, state: Dict[str, Any]) -> Generator[Any, Any, Any]:
        comm = ctx.comm
        lo, hi = state["lo"], state["hi"]
        # periodic rows: every rank has both neighbours on the ring
        up = (ctx.rank - 1) % ctx.size
        down = (ctx.rank + 1) % ctx.size
        my_rows = hi - lo
        half_flops = self.flops_per_cell * my_rows * self.n / 2.0

        while state["iter"] < self.iters:
            spins = state["spins"]
            for colour in (0, 1):
                if ctx.size > 1:
                    yield from comm.send(up, spins[1].copy(), tag=_TAG_DOWN)
                    yield from comm.send(down, spins[-2].copy(), tag=_TAG_UP)
                    # consume in send order (matters when size == 2 and
                    # both halos come over the same channel): every rank
                    # sends its DOWN-tagged row first.
                    msg = yield from comm.recv(source=down, tag=_TAG_DOWN)
                    spins[-1, :] = msg.payload
                    msg = yield from comm.recv(source=up, tag=_TAG_UP)
                    spins[0, :] = msg.payload
                else:
                    spins[0, :] = spins[-2]
                    spins[-1, :] = spins[1]
                _sweep_colour(
                    spins, state["jh"], state["jv"], lo, colour,
                    self.beta, state["rng"],
                )
                yield from ctx.compute(half_flops)
            state["iter"] += 1
            yield from ctx.checkpoint_point()

        local_mag = int(state["spins"][1:-1].sum())
        total_mag = yield from reduce(comm, local_mag, operator.add, root=0)
        if ctx.rank == 0:
            return {"magnetisation": total_mag, "n": self.n, "iters": self.iters}
        return None

    # -- reference ------------------------------------------------------------

    def serial_result(self, size: int, seed: int) -> Any:
        """Replays the exact parallel computation sequentially: same block
        decomposition, same per-rank streams, same colour ordering. Blocks
        of one colour are independent given the current lattice, so the
        block-sequential update equals the parallel one bit for bit."""
        parts = _partition(self.n, size)
        jh, jv = _couplings(self.n, seed)
        lattice = np.empty((self.n, self.n), dtype=np.int8)
        rngs = []
        for rank, (lo, hi) in enumerate(parts):
            block = _init_spins(rank, lo, hi, self.n, seed)
            lattice[lo:hi] = block[1:-1]
            rngs.append(
                np.random.default_rng(derive_seed(seed, f"ising.sweep.r{rank}"))
            )
        for _ in range(self.iters):
            for colour in (0, 1):
                # snapshot so every block sees pre-half-sweep halo rows,
                # exactly like the message exchange does
                before = lattice.copy()
                for rank, (lo, hi) in enumerate(parts):
                    if hi == lo:
                        continue
                    block = np.empty((hi - lo + 2, self.n), dtype=np.int8)
                    block[1:-1] = lattice[lo:hi]
                    block[0] = before[(lo - 1) % self.n]
                    block[-1] = before[hi % self.n]
                    _sweep_colour(
                        block,
                        jh[lo:hi],
                        jv[np.arange(lo - 1, hi) % self.n],
                        lo,
                        colour,
                        self.beta,
                        rngs[rank],
                    )
                    lattice[lo:hi] = block[1:-1]
        return {
            "magnetisation": int(lattice.sum()),
            "n": self.n,
            "iters": self.iters,
        }

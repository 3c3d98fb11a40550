"""The benchmark's traffic mixes and their seeded script streams.

Scripts come from the public generators in :mod:`repro.sim.workload`,
drawn in blocks of :data:`BLOCK` scripts.  Each block is one generator
call with a seed derived from the workload seed and the block number,
so the stream is unbounded, the same seed always gives the same
scripts, and cad cooperation edges (partial-order predecessors) point
at scripts of the same block, which are usually still in flight: those
commits park server-side until their predecessor commits.

The server never sees the seed.  It is started with the schema alone
(module count, fixed entities per module), which the generators build
independently of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.server.router import shard_of
from repro.sim.workload import (
    TransactionScript,
    cad_workload,
    oltp_workload,
)

#: Scripts per generator call.
BLOCK = 16

#: Entities per module; the same for both generators' stock schemas.
ENTITIES_PER_MODULE = 4


@dataclass(frozen=True)
class Mix:
    """One workload: the schema, the script shape and the server setup."""

    name: str
    why: str
    kind: str  # "oltp" or "cad"
    modules: int
    key_dist: str
    write_ratio: float
    cross_module_probability: float
    cooperation_probability: float
    shards: int
    wal: bool
    live_trace: bool
    #: Scripts per server lifetime: a lifetime is a fixed amount of work,
    #: so every lifetime reaches the same history length.
    scripts_per_server: int
    #: Send each write as ``begin_write`` + ``end_write``: the write lock
    #: is held across a round trip, so readers of a hot entity block.
    split_writes: bool = False
    flush_interval: float = 0.005
    checkpoint_every: int = 512

    def module_shards(self) -> dict[str, int]:
        """Module → owning shard, by the router's public ``shard_of``."""
        return {
            f"m{module}": shard_of(f"m{module}_e0", self.shards)
            for module in range(self.modules)
        }

    def serve_args(self, run_dir: Path, tag: str) -> list[str]:
        """``repro serve`` arguments for one server of this mix."""
        args = [
            "serve",
            "--port", "0",
            "--workload", self.kind,
            "--key-dist", self.key_dist,
            "--shards", str(self.shards),
        ]
        if self.wal:
            args += [
                "--wal-dir", str(run_dir / f"wal-{tag}"),
                "--flush-interval", str(self.flush_interval),
                "--checkpoint-every", str(self.checkpoint_every),
            ]
        if self.live_trace:
            args += ["--trace-out", str(run_dir / f"trace-{tag}.jsonl")]
        return args

    def policy(self) -> dict[str, object]:
        """The durability and tracing policy, as recorded in the output."""
        if not self.wal:
            return {"wal": False, "live_trace": self.live_trace}
        return {
            "wal": True,
            "flush_interval_s": self.flush_interval,
            "checkpoint_every": self.checkpoint_every,
            "live_trace": self.live_trace,
        }


MIXES: dict[str, Mix] = {
    mix.name: mix
    for mix in (
        Mix(
            name="oltp-soak",
            why=(
                "stock oltp, 1 shard, in memory: define/validate and "
                "version cost that grows with history; WAL, router and "
                "tracer are bypassed"
            ),
            kind="oltp",
            modules=2,
            key_dist="uniform",
            write_ratio=0.5,
            cross_module_probability=0.5,
            cooperation_probability=0.0,
            shards=1,
            wal=False,
            live_trace=False,
            scripts_per_server=1100,
        ),
        Mix(
            name="cad-durable",
            why=(
                "write-heavy zipf cad with cooperation edges, 1 shard, "
                "WAL + checkpoints + live tracing, SIGKILL then verified "
                "recovery"
            ),
            kind="cad",
            modules=3,
            key_dist="zipf",
            write_ratio=0.75,
            cross_module_probability=0.2,
            cooperation_probability=0.3,
            shards=1,
            wal=True,
            live_trace=True,
            scripts_per_server=550,
            split_writes=True,
        ),
        Mix(
            name="cad-2pc",
            why=(
                "8-module cad over 4 shards, in memory: single-shard and "
                "cross-shard 2PC transactions through the router"
            ),
            kind="cad",
            modules=8,
            key_dist="uniform",
            write_ratio=0.5,
            cross_module_probability=0.1,
            cooperation_probability=0.0,
            shards=4,
            wal=False,
            live_trace=False,
            scripts_per_server=900,
        ),
    )
}


def block_seed(seed: int, block: int) -> int:
    """The generator seed of one block of a workload seed's stream."""
    return seed * 1_000_003 + block


class ScriptStream:
    """An unbounded, seeded stream of scripts for one mix."""

    def __init__(self, mix: Mix, seed: int) -> None:
        self._mix = mix
        self._seed = seed
        self._block = 0
        self._pending: list[TransactionScript] = []

    def _generate(self) -> list[TransactionScript]:
        mix = self._mix
        seed = block_seed(self._seed, self._block)
        if mix.kind == "oltp":
            workload = oltp_workload(
                num_transactions=BLOCK,
                num_modules=mix.modules,
                entities_per_module=ENTITIES_PER_MODULE,
                write_ratio=mix.write_ratio,
                seed=seed,
                key_dist=mix.key_dist,
            )
        else:
            workload = cad_workload(
                num_designers=BLOCK,
                num_modules=mix.modules,
                entities_per_module=ENTITIES_PER_MODULE,
                think_time=0.0,
                write_ratio=mix.write_ratio,
                cross_module_probability=mix.cross_module_probability,
                cooperation_probability=mix.cooperation_probability,
                seed=seed,
                key_dist=mix.key_dist,
            )
        prefix = f"b{self._block}."
        for script in workload.scripts:
            script.txn_id = prefix + script.txn_id
            script.predecessors = tuple(
                prefix + base for base in script.predecessors
            )
        self._block += 1
        return workload.scripts

    def next(self) -> TransactionScript:
        if not self._pending:
            self._pending = self._generate()[::-1]
        return self._pending.pop()


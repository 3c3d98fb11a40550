"""The server process and the closed-loop driver that loads it.

:class:`ServerProcess` spawns ``launcher.py`` as its own process and
reads its CPU time and peak memory from ``/proc/<pid>``.

:class:`ClosedLoop` is the load: ``users`` virtual users share
``connections`` pipelined :class:`~repro.server.AsyncClient`
connections.  Each user takes the next script of the seeded stream,
defines it when it reaches it, then validates, reads and writes, and
commits; it sends each request only after the reply to the previous
one.  An abort restarts the script under a fresh define.  Latency runs
from the first define sent to the commit acknowledgement, restarts
included.
"""

from __future__ import annotations

import asyncio
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.server import AsyncClient
from repro.server.errors import (
    WIRE_FAULT_CODES,
    BusyError,
    ErrorCode,
    ServerError,
)
from repro.server.router import shard_of
from repro.sim.workload import Read, TransactionScript, Write

from workloads import Mix, ScriptStream

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Restarts of one script before the driver gives it up (an error).
MAX_RESTARTS = 50

#: Seconds the driver waits for a spawned server to start listening.
START_TIMEOUT = 60.0

#: Host probe: a fixed loop of this many dict updates, timed on the
#: driver's thread CPU clock every ``PROBE_INTERVAL`` seconds (about 2%
#: of the vCPU).
PROBE_ITERATIONS = 5000
PROBE_INTERVAL = 0.025

#: Probe time at the reference host speed to which rates and times are
#: scaled: about what the probe takes on a 2-vCPU Xeon VM in its fast
#: spells (0.51-0.56 ms; its slow spells read 0.79-0.88 ms).
PROBE_REFERENCE_S = 0.5e-3

HERE = Path(__file__).resolve().parent


def _probe_once() -> float:
    """Thread CPU seconds of one fixed run of interpreter work."""
    started = time.thread_time()
    table: dict[int, int] = {}
    for index in range(PROBE_ITERATIONS):
        table[index & 255] = table.get(index & 255, 0) + index
    return time.thread_time() - started


class HostProbe:
    """How fast the host's CPU runs, sampled while the benchmark runs.

    A shared host runs the same instructions up to 1.6 times slower for
    stretches of seconds to minutes.  The benchmark pins the driver and
    the server to one vCPU, and this probe times a fixed loop on the
    driver's event loop between its other callbacks, so it sees the
    vCPU the server runs on at the same moments.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._task: asyncio.Task | None = None

    def start(self) -> None:
        self._task = asyncio.create_task(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass

    async def _run(self) -> None:
        while True:
            self.samples.append((time.perf_counter(), _probe_once()))
            await asyncio.sleep(PROBE_INTERVAL)

    def slowness(self, start: float, end: float) -> float:
        """Median probe time within ``[start, end]`` ÷ the reference."""
        window = [spent for at, spent in self.samples if start <= at <= end]
        if not window:
            raise RuntimeError(
                f"host probe took no sample in {end - start:.3f} s"
            )
        return statistics.median(window) / PROBE_REFERENCE_S


class ServerProcess:
    """One ``repro serve`` process started through ``launcher.py``."""

    def __init__(
        self, mix: Mix, serve_args: list[str], layers_out: Path | None
    ) -> None:
        self.mix = mix
        self.serve_args = serve_args
        self.layers_out = layers_out
        self.proc: asyncio.subprocess.Process | None = None
        self.port = 0
        self.output: list[str] = []
        self._pump: asyncio.Task | None = None

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    async def start(self) -> float:
        """Spawn the server; the seconds until its first ``hello``."""
        command = [
            sys.executable,
            str(HERE / "launcher.py"),
            "--kind", self.mix.kind,
            "--modules", str(self.mix.modules),
        ]
        if self.layers_out is not None:
            command += ["--layers-out", str(self.layers_out)]
        command += ["--", *self.serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH")])
        )
        started = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            *command,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=env,
        )
        assert self.proc.stdout is not None
        while True:
            line = await asyncio.wait_for(
                self.proc.stdout.readline(), START_TIMEOUT
            )
            if not line:
                raise RuntimeError(
                    "server exited before listening:\n"
                    + "".join(self.output)
                )
            text = line.decode("utf-8", "replace")
            self.output.append(text)
            if " listening on " in text:
                address = text.split(" listening on ", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                break
        self._pump = asyncio.create_task(self._drain_output())
        client = await AsyncClient.connect("127.0.0.1", self.port)
        try:
            await client.hello()
        finally:
            await client.close()
        return time.perf_counter() - started

    async def _drain_output(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        while line := await self.proc.stdout.readline():
            self.output.append(line.decode("utf-8", "replace"))

    def cpu_seconds(self) -> float:
        """utime + stime of the server process."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def thread_cpu_seconds(self) -> float:
        """CPU time of the server's main thread, at nanosecond precision
        (``se.sum_exec_runtime`` of ``/proc/<pid>/sched``, in ms)."""
        with open(f"/proc/{self.pid}/sched", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("se.sum_exec_runtime"):
                    return float(line.split(":", 1)[1]) / 1000.0
        raise RuntimeError("no se.sum_exec_runtime in /proc sched")

    def peak_rss_mb(self) -> float:
        """VmHWM of the server process, in MiB."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    async def dump_layers(self, timeout: float = 60.0) -> None:
        """Ask a traced server to write its layer snapshot; wait for it."""
        assert self.layers_out is not None
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not self.layers_out.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server wrote no layer snapshot")
            await asyncio.sleep(0.02)

    async def stop(self, kill: bool = False) -> None:
        """SIGKILL, or SIGTERM and let the server drain; then reap it."""
        if self.proc is None:
            return
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGKILL if kill else signal.SIGTERM)
            try:
                await asyncio.wait_for(self.proc.wait(), 60.0)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()
        if self._pump is not None:
            await self._pump


@dataclass
class ScriptResult:
    """One committed script."""

    latency: float
    names: list[str]  # every transaction and branch name it ran under
    cross: bool
    attempts: int
    branches: int  # branches of the attempt that committed


@dataclass
class LoadStats:
    """Client-side counts of one closed-loop run."""

    scripts: int = 0
    attempts: int = 0
    aborted: int = 0
    requests: int = 0
    busy: int = 0
    wire_faults: int = 0
    timeouts: int = 0
    gave_up: int = 0
    reads: int = 0
    writes: int = 0
    cross_attempts: int = 0
    cross_aborted: int = 0
    committed: list[ScriptResult] = field(default_factory=list)
    #: server main-thread CPU seconds at each commit acknowledgement
    cpu_at_commit: list[float] = field(default_factory=list)
    #: ``time.perf_counter()`` at each commit acknowledgement
    at_commit: list[float] = field(default_factory=list)
    entity_hits: dict[str, int] = field(default_factory=dict)
    wall: float = 0.0
    cpu: float = 0.0

    @property
    def errors(self) -> int:
        return self.wire_faults + self.timeouts + self.gave_up


class ClosedLoop:
    """Virtual users over shared connections, until a deadline or a
    script budget."""

    def __init__(
        self,
        server: ServerProcess,
        stream: ScriptStream,
        *,
        users: int,
        connections: int,
    ) -> None:
        self.server = server
        self.stream = stream
        self.users = users
        self.connections = connections
        self.stats = LoadStats()
        self._names: dict[str, str] = {}
        self._shards = server.mix.shards

    async def run(self, seconds: float, max_scripts: int) -> LoadStats:
        """Run ``max_scripts`` scripts, starting none after ``seconds``."""
        pool = [
            await AsyncClient.connect("127.0.0.1", self.server.port)
            for _ in range(self.connections)
        ]
        try:
            cpu0 = self.server.cpu_seconds()
            run0 = self.server.thread_cpu_seconds()
            started = time.perf_counter()
            deadline = started + seconds

            def more() -> bool:
                return (
                    self.stats.scripts < max_scripts
                    and time.perf_counter() < deadline
                )

            await asyncio.gather(
                *(
                    self._user(pool[index % len(pool)], more)
                    for index in range(self.users)
                )
            )
            self.stats.wall = time.perf_counter() - started
            self.stats.cpu = self.server.cpu_seconds() - cpu0
            self.stats.cpu_at_commit = [
                value - run0 for value in self.stats.cpu_at_commit
            ]
        finally:
            for client in pool:
                await client.close()
        return self.stats

    async def _user(self, client: AsyncClient, more) -> None:
        while more():
            script = self.stream.next()
            self.stats.scripts += 1
            await self._run_script(client, script)

    async def call(
        self, client: AsyncClient, op: str, **params: Any
    ) -> dict[str, Any]:
        """One request; BUSY is retried, faults are counted and raised."""
        while True:
            self.stats.requests += 1
            try:
                return await client.request(op, **params)
            except BusyError:
                self.stats.busy += 1
                await asyncio.sleep(0.001)
            except ServerError as error:
                if error.code in WIRE_FAULT_CODES:
                    self.stats.wire_faults += 1
                elif error.code is ErrorCode.TIMEOUT:
                    self.stats.timeouts += 1
                raise

    async def _run_script(
        self, client: AsyncClient, script: TransactionScript
    ) -> None:
        stats = self.stats
        accesses = script.flat_accesses()
        entities = {step.entity for step in accesses}
        cross = (
            self._shards > 1
            and len({shard_of(e, self._shards) for e in entities}) > 1
        )
        reads = sorted(script.read_entities)
        writes = sorted(script.write_entities)
        params = {
            "updates": writes,
            "input": " & ".join(f"{e} >= 0" for e in reads) or "true",
            "output": " & ".join(f"{e} >= 0" for e in writes) or "true",
        }
        names: list[str] = []
        started = time.perf_counter()
        for attempt in range(MAX_RESTARTS + 1):
            stats.attempts += 1
            stats.cross_attempts += cross
            predecessors = [
                self._names[base]
                for base in script.predecessors
                if base in self._names
            ]
            try:
                reply = await self.call(
                    client, "define", predecessors=predecessors, **params
                )
            except ServerError:
                stats.aborted += 1
                stats.cross_aborted += cross
                continue
            txn = str(reply["txn"])
            branches = reply.get("branches", {})
            names.append(txn)
            names.extend(b for b in branches.values() if b != txn)
            self._names[script.txn_id] = txn
            try:
                committed = await self._attempt(client, txn, accesses)
            except ServerError:
                # Aborted, timed out or faulted (counted by ``call``).
                committed = False
                await self._quiet_abort(client, txn)
            if committed:
                stats.cpu_at_commit.append(self.server.thread_cpu_seconds())
                stats.at_commit.append(time.perf_counter())
                stats.committed.append(
                    ScriptResult(
                        time.perf_counter() - started,
                        names,
                        cross,
                        attempt + 1,
                        max(1, len(branches)),
                    )
                )
                for step in accesses:
                    stats.entity_hits[step.entity] = (
                        stats.entity_hits.get(step.entity, 0) + 1
                    )
                    if isinstance(step, Read):
                        stats.reads += 1
                    else:
                        stats.writes += 1
                return
            stats.aborted += 1
            stats.cross_aborted += cross
        stats.gave_up += 1

    async def _attempt(
        self, client: AsyncClient, txn: str, accesses: list["Read | Write"]
    ) -> bool:
        reply = await self.call(client, "validate", txn=txn)
        if reply.get("outcome") != "ok":
            return False
        values: dict[str, int] = {}
        for step in accesses:
            if isinstance(step, Read):
                reply = await self.call(
                    client, "read", txn=txn, entity=step.entity
                )
                values[step.entity] = int(reply["value"])
            elif self.server.mix.split_writes:
                await self.call(
                    client, "begin_write", txn=txn, entity=step.entity
                )
                await self.call(
                    client,
                    "end_write",
                    txn=txn,
                    entity=step.entity,
                    value=step.resolve(values),
                )
            else:
                await self.call(
                    client,
                    "write",
                    txn=txn,
                    entity=step.entity,
                    value=step.resolve(values),
                )
        reply = await self.call(client, "commit", txn=txn)
        if reply.get("outcome") == "committed":
            return True
        await self._quiet_abort(client, txn)
        return False

    async def _quiet_abort(self, client: AsyncClient, txn: str) -> None:
        try:
            await self.call(client, "abort", txn=txn)
        except ServerError:
            pass  # already terminated, e.g. by a cascade

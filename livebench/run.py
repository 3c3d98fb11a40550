"""Live-path benchmark: a ``repro serve`` process under closed-loop load.

Run from the repository root::

    python3 livebench/run.py --workload oltp-soak --seed 1 --seconds 35 \\
        --trace 0

The server runs in its own process (``launcher.py``); this process is
the single driver.  A run starts one server after another for
``--seconds`` (at least three), each from an empty history and each
loaded with the same fixed number of scripts.  ``--trace 0`` reports
the end-to-end metrics with tracing off, pooled over those servers.
``--trace 1`` first repeats that untraced run, then loads one more
server, with the per-layer timers of ``layers.py`` installed, and
reports the per-layer metrics, the per-transaction split of latency
into layer self time plus a residual, and the tracing overhead against
the untraced run.

Every run checks correctness and reports a failure instead of numbers
(exit status 1) when a check fails:

* no wire faults (``MALFORMED``/``UNKNOWN_OP``/``INTERNAL`` replies);
* the commits the client counted equal ``server.txns.committed``
  (counting one commit per branch of a cross-shard transaction), which
  equals the sum of the per-shard counts;
* with a WAL, ``repro recover --verify --json`` on the WAL left by a
  SIGKILL after the last acknowledgement says verified and counts
  every acknowledged commit;
* in the traced run, ``verify_parent_based`` and ``verify_correctness``
  (Lemma 4 / Theorem 2) on every shard's root report no violation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts requests sent and ``failed`` counts wire faults, TIMEOUTs and
scripts given up, so ``failed / attempted`` is the error rate.  The
lines before it are a readable table and the traffic fingerprint.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent

#: Virtual users and the connections they share.
USERS = 16
CONNECTIONS = 2

#: Fewest server lifetimes in a run.  Each runs the same scripts from an
#: empty history; a run starts lifetimes until ``--seconds`` is used up.
MIN_SERVERS = 3

#: Seconds after which a server lifetime stops starting scripts even if
#: it has not run its budget, so that a much slower server still ends
#: the whole run within 180 s.
LOAD_TIME_CAP = 24.0

#: Units of the end-to-end metrics that are printed in the table but
#: not bounded in BENCHMARK.json (which gives the units of the rest).
#: On a shared 2-vCPU host the p99's spread over ten seeds reached 0.28
#: (0.56 before cad-2pc dropped its WAL), past the largest bound allowed.
TABLE_ONLY_UNITS = {
    "txn_p99_ms": "ms",
    "abort_rate": "ratio",
    "error_rate": "ratio",
    "recover_s": "s",
}


#: End-to-end metrics scaled to the reference host speed (the rest are
#: counts or memory, which the host's speed does not move).
SCALED = (
    "commit_tps", "server_cpu_ms_per_commit", "txn_p50_ms", "txn_p99_ms",
    "cost_growth", "setup_s",
)


class GateFailure(Exception):
    """A correctness check failed; the run reports no numbers."""


def _load_benchmark() -> dict[str, Any]:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def tenth_growth(values: list[float]) -> float:
    """Mean of the last tenth of ``values`` over the mean of the first."""
    tenth = max(1, len(values) // 10)
    first = statistics.fmean(values[:tenth])
    return ratio(statistics.fmean(values[-tenth:]), first)


#: Parts of a lifetime's commits over which cost growth is taken.  Over
#: tenths (55 to 110 commits each) its spread over the seeds of a set
#: reached 0.21-0.25; over fifths it was 0.10-0.14 on the same runs.
GROWTH_PARTS = 5


def part_costs(load, probe=None) -> list[float]:
    """Server CPU per commit in each fifth of a lifetime's commits, read
    from the server's CPU clock at the part's first and last ack; with a
    host probe, scaled by its slowness between those two acks."""
    cpu, at = load.cpu_at_commit, load.at_commit
    part = len(cpu) // GROWTH_PARTS
    if part < 2:
        raise GateFailure("too few commits to measure cost growth")
    costs = []
    for k in range(GROWTH_PARTS):
        first, last = k * part, (k + 1) * part - 1
        cost = (cpu[last] - cpu[first]) / (part - 1)
        if probe is not None:
            cost /= probe.slowness(at[first], at[last])
        costs.append(cost)
    return costs


def cost_growth(curves: list[list[float]]) -> float:
    """Server CPU per commit over the last fifth of commits ÷ the first.

    Every lifetime of a run replays the same scripts, so the lifetimes'
    per-part costs are averaged before the ratio is taken: a part
    disturbed by the host in one lifetime does not decide it alone.
    """
    costs = [statistics.fmean(values) for values in zip(*curves)]
    return ratio(costs[-1], costs[0])


# -- one measured phase ------------------------------------------------------


async def _stats(port: int) -> dict[str, Any]:
    from repro.server import AsyncClient

    client = await AsyncClient.connect("127.0.0.1", port)
    try:
        return (await client.stats())["stats"]
    finally:
        await client.close()


def _recover(wal_dir: Path) -> tuple[float, dict[str, Any]]:
    """``repro recover --verify --json``: its wall time and summary."""
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "repro", "recover", "--wal-dir",
         str(wal_dir), "--verify", "--json"],
        capture_output=True, text=True, env=env, timeout=170,
    )
    elapsed = time.perf_counter() - started
    try:
        summary = json.loads(done.stdout)
    except json.JSONDecodeError:
        raise GateFailure(
            f"recover printed no JSON (exit {done.returncode}): "
            f"{done.stderr.strip()[-400:]}"
        ) from None
    if done.returncode != 0 or not summary.get("verified"):
        raise GateFailure(f"recover --verify failed: {summary}")
    return elapsed, summary


async def run_rep(
    mix, seed: int, run_dir: Path, tag: str, probe, *, traced: bool,
    budget: int,
) -> dict[str, Any]:
    """One server lifetime: spawn, load ``budget`` scripts, check, stop."""
    from driver import ClosedLoop, ServerProcess
    from workloads import ScriptStream

    server = ServerProcess(
        mix,
        mix.serve_args(run_dir, tag),
        run_dir / f"layers-{tag}.json" if traced else None,
    )
    layers = None
    try:
        spawned = time.perf_counter()
        setup_s = await server.start()
        ready = time.perf_counter()
        loop = ClosedLoop(
            server,
            ScriptStream(mix, seed),
            users=USERS,
            connections=CONNECTIONS,
        )
        load = await loop.run(LOAD_TIME_CAP, max_scripts=budget)
        loaded = time.perf_counter()
        counters = (await _stats(server.port)).get("counters", {})
        rss = server.peak_rss_mb()
        if traced:
            await server.dump_layers()
            with open(server.layers_out, encoding="utf-8") as handle:
                layers = json.load(handle)
    finally:
        # With a WAL the server dies by SIGKILL right after the last
        # acknowledgement; recovery below must find every acked commit.
        await server.stop(kill=mix.wal)
    result: dict[str, Any] = {
        "load": load,
        "counters": counters,
        "rss_mb": rss,
        "setup_s": setup_s,
        "layers": layers,
        "setup_slowness": probe.slowness(spawned, ready),
        "slowness": probe.slowness(ready, loaded),
        "part_costs": part_costs(load, probe),
        "part_costs_unscaled": part_costs(load),
    }
    check_phase(mix, result)
    if mix.wal:
        result["recover_s"], result["recovery"] = _recover(
            run_dir / f"wal-{tag}"
        )
        check_recovery(result)
    # Drop this lifetime's WAL and trace now, so that their write-back
    # does not land on the disk while the next lifetime is measured.
    for path in run_dir.glob(f"*-{tag}*"):
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
    return result


# -- correctness gates -------------------------------------------------------


def check_phase(mix, result: dict[str, Any]) -> None:
    load = result["load"]
    counters = result["counters"]
    if load.wire_faults:
        raise GateFailure(f"{load.wire_faults} wire faults")
    if not load.committed:
        raise GateFailure("no transaction committed")
    expected = sum(item.branches for item in load.committed)
    server_total = counters.get("server.txns.committed", 0)
    if server_total != expected:
        raise GateFailure(
            f"client counted {expected} branch commits "
            f"({len(load.committed)} transactions), server counted "
            f"{server_total}"
        )
    if mix.shards > 1:
        per_shard = sum(
            counters.get(f"server.txns.committed.shard{index}", 0)
            for index in range(mix.shards)
        )
        if per_shard != server_total:
            raise GateFailure(
                f"per-shard commits sum to {per_shard}, aggregate says "
                f"{server_total}"
            )
    layers = result["layers"]
    if layers is not None and layers["violations"]:
        raise GateFailure(
            "root verification failed: " + "; ".join(layers["violations"][:5])
        )


def check_recovery(result: dict[str, Any]) -> None:
    summary = result["recovery"]
    shards = summary.get("shards", {"0": summary})
    recovered = sum(shard["committed"] for shard in shards.values())
    expected = sum(item.branches for item in result["load"].committed)
    if recovered != expected:
        raise GateFailure(
            f"recovery committed {recovered} branches, the client had "
            f"{expected} acknowledged"
        )
    result["replayed"] = sum(
        shard["records_replayed"] for shard in shards.values()
    )


# -- metrics -----------------------------------------------------------------


def end_to_end(
    reps: list[dict[str, Any]], scaled: bool = True
) -> dict[str, float]:
    """The end-to-end metrics of a run's server lifetimes.

    With ``scaled``, each lifetime's rates and times are first scaled to
    the reference host speed by the host probe's slowness over that
    lifetime (its set-up time by the slowness during set-up): the shared
    host runs the same code up to 1.6 times slower for stretches of
    seconds to minutes, and the probe sees those stretches on the same
    vCPU at the same moments.  Rates and costs then pool the whole run:
    ``commit_tps`` is all commits over all load time, CPU per commit is
    all server CPU over all commits, and the latency percentiles pool
    every committed script (the p99 has more than ten samples beyond
    it).  Cost growth averages the lifetimes' cost curves, each part of
    a curve scaled by the slowness over that part.  Memory, set-up and
    recovery time are medians over the lifetimes.
    """

    def slow(result: dict[str, Any], key: str = "slowness") -> float:
        return result[key] if scaled else 1.0

    loads = [result["load"] for result in reps]
    latencies = [
        item.latency * 1000.0 / slow(result)
        for result in reps
        for item in result["load"].committed
    ]
    attempts = sum(load.attempts for load in loads)
    merged = {
        "commit_tps": len(latencies) / sum(
            result["load"].wall / slow(result) for result in reps
        ),
        "server_cpu_ms_per_commit": sum(
            result["load"].cpu / slow(result) for result in reps
        ) * 1000.0 / len(latencies),
        "txn_p50_ms": percentile(latencies, 50),
        "txn_p99_ms": percentile(latencies, 99),
        "cost_growth": cost_growth([
            result["part_costs" if scaled else "part_costs_unscaled"]
            for result in reps
        ]),
        "abort_rate": ratio(sum(load.aborted for load in loads), attempts),
        "attempts_per_commit": attempts / len(latencies),
        "error_rate": ratio(
            sum(load.errors for load in loads),
            sum(load.requests for load in loads),
        ),
        "server_rss_mb": statistics.median(
            result["rss_mb"] for result in reps
        ),
        "setup_s": statistics.median(
            result["setup_s"] / slow(result, "setup_slowness")
            for result in reps
        ),
    }
    if "recover_s" in reps[0]:
        merged["recover_s"] = statistics.median(
            result["recover_s"] for result in reps
        )
    return merged


def per_layer(
    mix, plain_cpu_ms: float, traced: dict[str, Any]
) -> tuple[dict[str, float], dict[str, Any]]:
    """The per-layer metrics of a traced phase, and the latency split."""
    load = traced["load"]
    counters = traced["counters"]
    layers = traced["layers"]
    calls = layers["calls"]
    counts = layers["counts"]
    histograms = layers["histograms"]
    commits = len(load.committed)

    def mean_us(key: str) -> float:
        count, total = calls.get(key, (0, 0.0))
        return ratio(total, count) * 1e6

    def hist_ms(name: str, p: float, scale: float = 1000.0) -> float:
        values = histograms.get(name) or [0.0]
        return percentile(values, p) * scale

    # Latency split: each committed script's latency = the self time the
    # server spent in each layer on its transactions + a residual.
    per_txn = layers["per_txn"]
    row_names = ("server", "protocol", "storage", "durability", "obs")
    rows = {name: 0.0 for name in row_names}
    residual_total = 0.0
    negative = 0
    for item in load.committed:
        shares = {name: 0.0 for name in row_names}
        for name in item.names:
            for layer, seconds in per_txn.get(name, {}).items():
                shares[layer] += seconds
        residual = item.latency - sum(shares.values())
        if abs(sum(shares.values()) + residual - item.latency) > 1e-9:
            raise GateFailure("layer rows and residual do not sum to latency")
        negative += residual < 0
        residual_total += residual
        for name in row_names:
            rows[name] += shares[name]
    split = {
        f"trace.{name}_ms_per_commit": rows[name] * 1000.0 / commits
        for name in row_names
    }
    split["trace.residual_ms_per_commit"] = residual_total * 1000.0 / commits
    split["trace.latency_ms_per_commit"] = (
        sum(item.latency for item in load.committed) * 1000.0 / commits
    )
    detail = {
        "negative_residuals": negative,
        "unattributed_ms": {
            layer: seconds * 1000.0
            for layer, seconds in layers["unattributed"].items()
        },
    }

    cross = [item for item in load.committed if item.cross]
    single = [item for item in load.committed if not item.cross]
    shard_commits = [
        counters.get(f"server.txns.committed.shard{index}", 0)
        for index in range(mix.shards)
    ]
    obs_seconds = sum(
        shares.get("obs", 0.0) for shares in per_txn.values()
    ) + layers["unattributed"].get("obs", 0.0)
    frames = calls.get("server.encode_frame", (0, 0.0))[1] + calls.get(
        "server.decode_frame", (0, 0.0)
    )[1]
    metrics = {
        "server.requests_per_commit": ratio(
            counters.get("server.requests", 0), commits
        ),
        "server.frame_us_per_request": ratio(frames, load.requests) * 1e6,
        "server.queue_wait_p50_ms": hist_ms("server.queue.wait", 50),
        "server.queue_wait_p99_ms": hist_ms("server.queue.wait", 99),
        "server.park_wait_p99_ms": hist_ms("server.park.wait", 99),
        "server.parked_per_commit": ratio(
            counters.get("server.parked", 0), commits
        ),
        "server.busy_per_request": ratio(load.busy, load.requests),
        "server.cpu_util": ratio(load.cpu, load.wall),
        "protocol.define_us": mean_us("protocol.define"),
        "protocol.validate_us": mean_us("protocol.validate"),
        "protocol.read_us": mean_us("protocol.read"),
        "protocol.write_us": ratio(
            calls.get("protocol.begin_write", (0, 0.0))[1]
            + calls.get("protocol.end_write", (0, 0.0))[1],
            calls.get("protocol.end_write", (0, 0.0))[0],
        ) * 1e6,
        "protocol.commit_us": mean_us("protocol.commit"),
        "protocol.abort_us": mean_us("protocol.abort"),
        "protocol.define_growth": tenth_growth(
            layers["samples"]["protocol.define"]
        ),
        "protocol.validate_growth": tenth_growth(
            layers["samples"]["protocol.validate"]
        ),
        "protocol.names_from_us": mean_us("protocol.names_from"),
        "protocol.d_members_us": mean_us("protocol.d_members"),
        "protocol.select_us": mean_us("protocol.select"),
        "protocol.d_set_candidates_mean": ratio(
            counts.get("select.candidates", 0), counts.get("select.d_sets", 0)
        ),
        "protocol.root_children_end": layers["root_children"],
        "protocol.validate_ok_ratio": ratio(
            counts.get("validate.ok", 0),
            counts.get("validate.ok", 0) + counts.get("validate.failed", 0),
        ),
        "protocol.lock_block_ratio": ratio(
            counts.get("lock.blocked", 0), counts.get("lock.requests", 0)
        ),
        "storage.versions_retained": layers["versions_retained"],
        "storage.write_us": mean_us("storage.write"),
        "durability.wal_append_us": mean_us("durability.wal_append"),
        "durability.flush_ms_p50": hist_ms("wal.flush.latency_ms", 50, 1.0),
        "durability.flush_ms_p99": hist_ms("wal.flush.latency_ms", 99, 1.0),
        "durability.fsyncs_per_commit": ratio(
            counters.get("wal.fsyncs", 0), commits
        ),
        "durability.records_per_flush": ratio(
            counters.get("wal.records", 0), counters.get("wal.fsyncs", 0)
        ),
        "durability.wal_bytes_per_commit": ratio(
            counters.get("wal.bytes", 0), commits
        ),
        "durability.checkpoint_ms": mean_us("durability.checkpoint") / 1000.0,
        "durability.checkpoint_bytes_per_commit": ratio(
            layers["checkpoint_bytes"], commits
        ),
        "durability.recover_replayed_records": traced.get("replayed", 0),
        "durability.prepare_us": mean_us("durability.prepare"),
        "recover_s": traced.get("recover_s", 0.0),
        "router.cross_txn_p50_ms": percentile(
            [item.latency * 1000.0 for item in cross] or [0.0], 50
        ),
        "router.single_txn_p50_ms": percentile(
            [item.latency * 1000.0 for item in single] or [0.0], 50
        ),
        "router.cross_abort_ratio": ratio(
            load.cross_aborted, load.cross_attempts
        ),
        "router.shard_commit_skew": ratio(
            max(shard_commits), statistics.fmean(shard_commits)
        ) if mix.shards > 1 else 1.0,
        "router.cross_share": ratio(len(cross), commits),
        "router.prepares_per_cross_commit": ratio(
            calls.get("durability.prepare", (0, 0.0))[0], len(cross)
        ),
        "obs.spans_per_commit": ratio(counts.get("obs.spans", 0), commits),
        "obs.tracer_us_per_commit": ratio(obs_seconds, commits) * 1e6,
        "obs.spans_dropped": counts.get("obs.dropped", 0),
        **split,
        "trace.overhead_pct": (
            ratio(
                load.cpu * 1000.0 / commits / traced["slowness"], plain_cpu_ms
            ) - 1.0
        ) * 100.0,
    }
    return metrics, detail


def fingerprint(
    mix, seed: int, reps: list[dict[str, Any]]
) -> dict[str, Any]:
    """What traffic this run actually sent (its first server's share)."""
    result = reps[0]
    load = result["load"]
    counters = result["counters"]
    accesses = load.reads + load.writes
    hits = sorted(load.entity_hits.values(), reverse=True)
    return {
        "workload": mix.name,
        "seed": seed,
        "servers": len(reps),
        "scripts_per_server": load.scripts,
        "committed": len(load.committed),
        "read_share": ratio(load.reads, accesses),
        "write_share": ratio(load.writes, accesses),
        "cross_shard_share": ratio(
            sum(item.cross for item in load.committed), len(load.committed)
        ),
        "per_shard_commits": {
            str(index): counters.get(
                f"server.txns.committed.shard{index}"
                if mix.shards > 1 else "server.txns.committed",
                0,
            )
            for index in range(mix.shards)
        },
        "key_dist": mix.key_dist,
        "hottest_entity_share": ratio(hits[0] if hits else 0, accesses),
        "modules": mix.modules,
        "module_shards": mix.module_shards(),
        "policy": mix.policy(),
        "users": USERS,
        "connections": CONNECTIONS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


# -- entry point -------------------------------------------------------------


def _table(
    title: str, metrics: dict[str, float], units: dict[str, str],
    extra: str = "",
) -> str:
    lines = [title]
    for name, value in metrics.items():
        lines.append(f"  {name:<40} {value:>14.4f} {units[name]}")
    return "\n".join(lines) + extra


async def measure(
    args, run_dir: Path, units: dict[str, str]
) -> dict[str, Any]:
    from driver import HostProbe
    from workloads import MIXES

    mix = MIXES[args.workload]
    shards_owned = set(mix.module_shards().values())
    if len(shards_owned) != mix.shards:
        raise GateFailure(
            f"{mix.name}: shards {sorted(shards_owned)} of {mix.shards} "
            "own modules; the traffic would leave shards idle"
        )
    probe = HostProbe()
    probe.start()
    try:
        return await _measure(args, units, mix, run_dir, probe)
    finally:
        await probe.stop()


async def _measure(
    args, units: dict[str, str], mix, run_dir: Path, probe
) -> dict[str, Any]:
    budget = mix.scripts_per_server
    reps: list[dict[str, Any]] = []
    started = time.perf_counter()
    while len(reps) < MIN_SERVERS or (
        # Start another lifetime only if one of average length still
        # fits in --seconds, so a run lasts --seconds on any host.
        (time.perf_counter() - started) * (len(reps) + 1) / len(reps)
        <= args.seconds
    ):
        reps.append(await run_rep(
            mix, args.seed, run_dir, f"rep{len(reps)}", probe,
            traced=False, budget=budget,
        ))
    e2e = end_to_end(reps)
    unscaled = end_to_end(reps, scaled=False)
    print(json.dumps({"fingerprint": fingerprint(mix, args.seed, reps)}))
    print(_table(
        f"end to end ({mix.name}, seed {args.seed}, tracing off, "
        f"{len(reps)} servers x {budget} scripts)", e2e, units,
        "\n  txn latency samples: "
        + str(sum(len(rep["load"].committed) for rep in reps)),
    ))
    print(json.dumps({
        "unscaled": {name: unscaled[name] for name in SCALED},
        "slowness": [round(rep["slowness"], 4) for rep in reps],
        "setup_slowness": [round(rep["setup_slowness"], 4) for rep in reps],
    }))
    out = {
        "correct": True,
        "attempted": sum(rep["load"].requests for rep in reps),
        "failed": sum(rep["load"].errors for rep in reps),
        "e2e": e2e,
    }
    if args.trace:
        traced = await run_rep(
            mix, args.seed, run_dir, "traced", probe,
            traced=True, budget=budget,
        )
        layer_metrics, detail = per_layer(
            mix, e2e["server_cpu_ms_per_commit"], traced
        )
        print(_table("per layer (traced server)", layer_metrics, units))
        print(json.dumps({"trace_detail": detail}))
        out["layers"] = layer_metrics
        out["attempted"] += traced["load"].requests
        out["failed"] += traced["load"].errors
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="live-path benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/repro/__init__.py").is_file():
        print(
            "error: run from the repository root; src/repro is missing",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(Path("src").resolve()), str(HERE)]
    # One vCPU for the driver and everything it starts: the closed loop
    # alternates between driver and server, so it commits as fast as on
    # two vCPUs, and the host probe then times the vCPU the server runs
    # on.  Unpinned, the probe tracked the server's speed poorly.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from workloads import MIXES

    if args.workload not in MIXES:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {sorted(MIXES)})", file=sys.stderr)
        return 2
    spec = _load_benchmark()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = dict(TABLE_ONLY_UNITS)
    for item in spec["end_to_end"] + spec["per_layer"]:
        units[item["name"]] = item["unit"]

    run_dir = Path(".livebench") / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        out = asyncio.run(measure(args, run_dir, units))
    except GateFailure as failure:
        print(f"correctness gate failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    source = out["layers"] if args.trace else out["e2e"]
    metrics = {
        item["name"]: {"value": float(source[item["name"]]),
                       "unit": item["unit"]}
        for item in wanted
    }
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Loadgen tests: workload replay, report shape, bench-file output."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.orders import PartialOrder
from repro.protocol import scheduler
from repro.server import (
    ServerConfig,
    TransactionServer,
    build_workload,
)
from repro.server.loadgen import report_table, run_loadgen

from .conftest import run


def _replay(workload, clients, **server_kw):
    async def body():
        server = TransactionServer(
            workload.fresh_database(), ServerConfig(port=0, **server_kw)
        )
        await server.start()
        try:
            return await run_loadgen(
                workload,
                clients=clients,
                port=server.port,
                connect_retries=2,
            )
        finally:
            await server.shutdown()

    return run(body(), timeout=120)


class TestLivePathOrder:
    def test_no_partial_order_built_while_serving(self, monkeypatch):
        """Define's cycle check, D-sets, the commit gate and Figure-4
        re-evaluation all answer from the per-parent index: a cad run
        with cooperation edges builds no :class:`PartialOrder`."""
        workload = build_workload(
            "cad", transactions=300, seed=5, key_dist="zipf"
        )
        assert any(script.predecessors for script in workload.scripts)
        built = []
        decisions = []
        original_init = PartialOrder.__init__
        original_decision = scheduler.figure4_decision

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original_init(self, *args, **kwargs)

        def counting_decision(*args, **kwargs):
            decisions.append(1)
            return original_decision(*args, **kwargs)

        monkeypatch.setattr(PartialOrder, "__init__", counting_init)
        monkeypatch.setattr(scheduler, "figure4_decision", counting_decision)
        report = _replay(workload, clients=8)
        assert report.protocol_errors == 0
        assert report.committed > 0
        assert decisions, "no Figure-4 re-evaluation ran"
        assert not built


class TestBuildWorkload:
    def test_kinds(self):
        cad = build_workload("cad", transactions=3)
        oltp = build_workload("oltp", transactions=3)
        assert len(cad.scripts) == 3
        assert len(oltp.scripts) == 3
        assert cad.fresh_database().schema.names

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown workload"):
            build_workload("tpcc")

    def test_key_dist_threads_through(self):
        zipf = build_workload("cad", transactions=3, key_dist="zipf")
        assert zipf.key_dist == "zipf"
        assert build_workload("oltp", transactions=3).key_dist == "uniform"
        with pytest.raises(ValueError, match="key distribution"):
            build_workload("cad", key_dist="pareto")


class TestLoadgen:
    def test_cad_replay_commits_everything_cleanly(self):
        workload = build_workload("cad", transactions=8, seed=1)
        report = _replay(workload, clients=4)
        assert report.protocol_errors == 0
        assert report.committed + report.gave_up == 8
        assert report.committed > 0
        assert report.requests > 0
        # BUSY retries observe latency without counting as requests.
        assert report.latency.count >= report.requests
        assert report.wall_time > 0
        assert report.throughput > 0

    def test_oltp_replay(self):
        workload = build_workload("oltp", transactions=6, seed=2)
        report = _replay(workload, clients=3)
        assert report.protocol_errors == 0
        assert report.committed + report.gave_up == 6

    def test_more_clients_than_scripts(self):
        workload = build_workload("cad", transactions=2, seed=0)
        report = _replay(workload, clients=5)
        assert report.protocol_errors == 0
        assert report.committed + report.gave_up == 2

    def test_report_json_and_file(self, tmp_path):
        workload = build_workload("cad", transactions=4, seed=3)
        report = _replay(workload, clients=2)
        data = report.to_json()
        assert data["benchmark"] == "server-loadgen"
        assert data["clients"] == 2
        assert data["scripts"] == 4
        assert data["key_dist"] == "uniform"
        assert set(data["request_latency_ms"]) == {
            "count", "mean", "p50", "p95", "p99", "max",
        }
        assert "server" in data
        path = tmp_path / "BENCH_server.json"
        report.write(str(path))
        assert json.loads(path.read_text()) == data
        table = report_table(report)
        assert "wire-protocol errors: 0" in table
        assert "committed" in table

    def test_server_stats_are_archived(self):
        workload = build_workload("cad", transactions=4, seed=4)
        report = _replay(workload, clients=2)
        assert report.server_stats["counters"]["server.requests"] > 0
        assert "queue_wait" in report.server_stats

    def test_rejects_zero_clients(self):
        workload = build_workload("cad", transactions=2)

        async def body():
            await run_loadgen(workload, clients=0, port=1)

        with pytest.raises(ValueError, match="client"):
            run(body())

    def test_connection_refused_surfaces_oserror(self):
        workload = build_workload("cad", transactions=1)

        async def body():
            # An unroutable port with no retries fails fast.
            await run_loadgen(
                workload,
                clients=1,
                port=1,
                connect_retries=0,
            )

        with pytest.raises(OSError):
            run(body())


class TestLoadgenUnderPressure:
    def test_tiny_queue_still_completes_with_busy_retries(self):
        # A 4-deep command queue against 6 clients forces BUSY
        # responses; the loadgen's backoff absorbs them and the run
        # still finishes with zero wire faults.
        workload = build_workload("oltp", transactions=12, seed=5)
        report = _replay(workload, clients=6, queue_size=4)
        assert report.protocol_errors == 0
        assert report.committed + report.gave_up == 12

    def test_asyncio_event_loop_isolation(self):
        # Two sequential asyncio.run loadgens must not share state.
        workload = build_workload("cad", transactions=2, seed=6)
        first = _replay(workload, clients=2)
        second = _replay(workload, clients=2)
        assert first.protocol_errors == second.protocol_errors == 0

"""Per-layer accounting for the traced run, installed inside the server.

:func:`install` wraps the public entry points of each layer module of
the ``repro`` package with a timer.  The wrappers keep a stack of open
calls, so each call's *self time* is its duration minus the part its
wrapped children cover.  A top-level call resolves the transaction it
served (from its arguments or its result) and charges its own self
time and that of every nested call to that transaction, layer by
layer.  Calls that name no transaction (the group-commit flush loop,
frames without a ``txn``) are charged to no transaction and end up in
the driver's residual.

Nothing here changes what the wrapped functions do: every wrapper
calls the original with the same arguments and returns its result.
The wrappers exist only in a server started by ``launcher.py`` with
``--layers-out``; the untraced runs never import this module.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from time import perf_counter
from typing import Any, Callable

#: Histograms whose every observation is kept (the server's registry
#: keeps only a recent window for percentiles).
SAMPLED_HISTOGRAMS = (
    "server.queue.wait",
    "server.park.wait",
    "wal.flush.latency_ms",
)

#: Calls whose individual durations are kept, in call order, for the
#: growth ratios.
SAMPLED_CALLS = ("protocol.define", "protocol.validate")


class LayerClock:
    """Self-time accounting over the wrapped entry points."""

    def __init__(self) -> None:
        # Open calls: [start, covered-by-children, [(layer, self), ...]].
        self._stack: list[list[Any]] = []
        #: key -> [calls, inclusive seconds]
        self.calls: dict[str, list[float]] = {}
        self.samples: dict[str, array] = {
            key: array("d") for key in SAMPLED_CALLS
        }
        #: txn -> layer -> self seconds
        self.per_txn: dict[str, dict[str, float]] = {}
        #: layer -> self seconds charged to no transaction
        self.unattributed: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.histograms: dict[str, array] = {
            name: array("d") for name in SAMPLED_HISTOGRAMS
        }
        self.managers: list[Any] = []
        self.checkpoint_bytes = 0

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def wrap(
        self,
        key: str,
        fn: Callable[..., Any],
        txn_of: Callable[[tuple, Any], Any] | None = None,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """A timing wrapper around ``fn``, charged to layer ``key``'s prefix.

        ``txn_of(args, result)`` names the transaction a top-level call
        served; ``after(args, result)`` records outcome counts.
        """
        layer = key.split(".", 1)[0]
        stack = self._stack
        calls = self.calls.setdefault(key, [0, 0.0])
        samples = self.samples.get(key)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, 0.0, []]
            stack.append(frame)
            frame[0] = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - frame[0]
                stack.pop()
                calls[0] += 1
                calls[1] += elapsed
                if samples is not None:
                    samples.append(elapsed)
                parts = frame[2]
                parts.append((layer, elapsed - frame[1]))
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    parent[2].extend(parts)
                else:
                    txn = txn_of(args, result) if txn_of else None
                    self._charge(txn if isinstance(txn, str) else None, parts)
            # Outcome counts only for calls that returned: a raising call
            # (say, a step on a cascade-aborted transaction) has no result.
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def _charge(
        self, txn: str | None, parts: list[tuple[str, float]]
    ) -> None:
        target = (
            self.unattributed
            if txn is None
            else self.per_txn.setdefault(txn, {})
        )
        for layer, seconds in parts:
            target[layer] = target.get(layer, 0.0) + seconds

    def observe(self, name: str, value: float) -> None:
        series = self.histograms.get(name)
        if series is not None:
            series.append(value)

    # -- the dump ------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Everything measured, plus end-of-run state and the
        Lemma-4 / Theorem-2 verification of every shard's root."""
        managers = self.live_managers()
        violations: list[str] = []
        versions = 0
        children = 0
        for manager in managers:
            root = manager.root
            violations += [
                f"{root}: {text}"
                for text in manager.verify_parent_based(root)
            ]
            violations += [
                f"{root}: {text}"
                for text in manager.verify_correctness(root)
            ]
            versions += manager.database.store.total_versions()
            children += len(manager.children_of(root))
        return {
            "calls": self.calls,
            "samples": {key: list(v) for key, v in self.samples.items()},
            "per_txn": self.per_txn,
            "unattributed": self.unattributed,
            "counts": self.counts,
            "histograms": {
                name: list(values)
                for name, values in self.histograms.items()
            },
            "managers": len(managers),
            "versions_retained": versions,
            "root_children": children,
            "checkpoint_bytes": self.checkpoint_bytes,
            "violations": violations,
        }

    def live_managers(self) -> list[Any]:
        """The managers the server is serving: one per shard root."""
        by_root: dict[str, Any] = {}
        for manager in self.managers:
            by_root[manager.root] = manager  # later (serving) one wins
        return list(by_root.values())

    def dump(self, path: str) -> None:
        """Write the snapshot atomically (the driver polls for it)."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


def _arg(index: int) -> Callable[[tuple, Any], Any]:
    return lambda args, _result: args[index] if len(args) > index else None


def _result(_args: tuple, result: Any) -> Any:
    return result


def _frame_txn(args: tuple, result: Any) -> Any:
    frame = result if isinstance(result, dict) else args[0]
    return frame.get("txn") if isinstance(frame, dict) else None


def _patch(
    owner: Any, name: str, replacement: Callable[..., Any]
) -> None:
    """Rebind ``owner.name``, and every module-level alias of the same
    function in loaded ``repro`` modules (``from x import f`` copies)."""
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    if isinstance(owner, type):
        return
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        if getattr(module, name, None) is original:
            setattr(module, name, replacement)


def install(clock: LayerClock) -> None:
    """Wrap the layer entry points of the loaded ``repro`` package."""
    import repro.durability  # noqa: F401 — loads the aliasing modules
    import repro.server  # noqa: F401
    from repro.durability.manager import DurableTransactionManager
    from repro.durability.snapshot import CheckpointStore
    from repro.durability.wal import WriteAheadLog
    from repro.obs.live import LiveTracer, RingSubscriber
    from repro.obs.metrics import Histogram
    from repro.protocol import validation
    from repro.protocol.fastpath import ParentIndex
    from repro.protocol.locks import LockOutcome, LockTable
    from repro.protocol.scheduler import Outcome, TransactionManager
    from repro.server import protocol as wire
    from repro.server.session import CommandDispatcher
    from repro.storage.version_store import VersionStore

    wrap = clock.wrap

    # repro.server: wire framing and command admission.
    for name in ("encode_frame", "decode_frame"):
        _patch(
            wire, name, wrap(f"server.{name}", getattr(wire, name), _frame_txn)
        )
    CommandDispatcher.submit = wrap(
        "server.submit",
        CommandDispatcher.submit,
        lambda args, _r: args[2].params.get("txn"),
    )

    # repro.protocol: the Section-5 manager and its validation helpers.
    def validate_outcome(_args: tuple, result: Any) -> None:
        if result.outcome is Outcome.OK:
            clock.count("validate.ok")
        elif result.outcome is Outcome.FAILED:
            clock.count("validate.failed")

    original_init = TransactionManager.__init__

    def tracking_init(self: Any, *args: Any, **kwargs: Any) -> None:
        original_init(self, *args, **kwargs)
        clock.managers.append(self)

    TransactionManager.__init__ = tracking_init
    TransactionManager.define = wrap(
        "protocol.define", TransactionManager.define, _result
    )
    TransactionManager.validate = wrap(
        "protocol.validate",
        TransactionManager.validate,
        _arg(1),
        validate_outcome,
    )
    for name in (
        "read", "write", "begin_write", "end_write", "commit", "abort",
        "can_commit", "unstable_reads_from",
    ):
        setattr(
            TransactionManager,
            name,
            wrap(f"protocol.{name}", getattr(TransactionManager, name), _arg(1)),
        )
    ParentIndex.names_from = wrap(
        "protocol.names_from", ParentIndex.names_from
    )
    ParentIndex.d_members = wrap(
        "protocol.d_members", ParentIndex.d_members
    )

    def count_candidates(args: tuple, _result: Any) -> None:
        d_sets = args[1]
        clock.count("select.d_sets", len(d_sets))
        clock.count(
            "select.candidates",
            sum(len(d_set.candidates) for d_set in d_sets.values()),
        )

    for selector in (
        validation.BacktrackingSelector,
        validation.SatSelector,
        validation.GreedyLatestSelector,
    ):
        selector.select = wrap(
            "protocol.select", selector.select, after=count_candidates
        )

    def lock_outcome(_args: tuple, result: Any) -> None:
        clock.count("lock.requests")
        if result is LockOutcome.BLOCKED:
            clock.count("lock.blocked")

    LockTable.request = wrap(
        "protocol.lock_request", LockTable.request, _arg(1), lock_outcome
    )

    # repro.storage
    VersionStore.write = wrap("storage.write", VersionStore.write, _arg(3))

    # repro.durability: the durable manager's own work, the WAL and
    # checkpoints.
    for name in (
        "define", "validate", "read", "end_write", "commit", "abort",
    ):
        setattr(
            DurableTransactionManager,
            name,
            wrap(
                f"durability.manager_{name}",
                getattr(DurableTransactionManager, name),
                _result if name == "define" else _arg(1),
            ),
        )
    DurableTransactionManager.prepare = wrap(
        "durability.prepare", DurableTransactionManager.prepare, _arg(1)
    )
    WriteAheadLog.append = wrap(
        "durability.wal_append", WriteAheadLog.append, _arg(2)
    )
    WriteAheadLog.flush = wrap("durability.wal_flush", WriteAheadLog.flush)

    def checkpoint_size(_args: tuple, result: Any) -> None:
        clock.checkpoint_bytes += os.path.getsize(result)

    CheckpointStore.write = wrap(
        "durability.checkpoint", CheckpointStore.write, after=checkpoint_size
    )

    # repro.obs: the live tracer, its ring, and histogram observations.
    def count_span(_args: tuple, result: Any) -> None:
        if result is not None:
            clock.count("obs.spans")

    LiveTracer.start = wrap("obs.start", LiveTracer.start, _arg(2), count_span)
    LiveTracer.record = wrap(
        "obs.record", LiveTracer.record, _arg(2), lambda *_: clock.count("obs.spans")
    )
    LiveTracer.end = wrap(
        "obs.end",
        LiveTracer.end,
        lambda args, _r: getattr(args[1], "txn", None),
    )
    for name in ("event", "alias", "reparent", "current_span_id"):
        setattr(
            LiveTracer, name, wrap(f"obs.{name}", getattr(LiveTracer, name))
        )

    def count_dropped(_args: tuple, result: Any) -> None:
        clock.count("obs.dropped", result[1])

    RingSubscriber.poll = wrap(
        "obs.poll", RingSubscriber.poll, after=count_dropped
    )

    original_observe = Histogram.observe

    def observe(self: Any, value: float) -> None:
        clock.observe(self.name, value)
        original_observe(self, value)

    Histogram.observe = observe

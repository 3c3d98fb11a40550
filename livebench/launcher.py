"""Start one ``repro serve`` process for the benchmark.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python livebench/launcher.py --kind cad --modules 8 \\
        [--layers-out FILE] -- serve --port 0 --shards 4 ...

Everything after ``--`` goes to ``repro``'s own command line unchanged,
so the server runs exactly the ``repro serve`` an operator runs.  Two
things are added around it:

* ``--kind``/``--modules`` give the schema to serve.  ``repro serve``
  only knows the stock schemas (2 oltp modules, 3 cad modules), so the
  launcher hands it a workload of the same kind built with the
  requested module count.  The schema does not depend on the seed.
* ``--layers-out FILE`` installs the per-layer timers of
  :mod:`layers` before the server starts.  On ``SIGUSR1`` the server
  writes everything measured to ``FILE``.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _schema_override(kind: str, modules: int):
    from repro.sim.workload import cad_workload, oltp_workload

    def build_workload(*_args, **_kwargs):
        if kind == "oltp":
            return oltp_workload(num_transactions=1, num_modules=modules)
        return cad_workload(num_designers=1, num_modules=modules)

    return build_workload


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=("oltp", "cad"), required=True)
    parser.add_argument("--modules", type=int, required=True)
    parser.add_argument("--layers-out", default=None)
    args = parser.parse_args(argv[:split])

    import repro.server
    from repro import cli

    repro.server.build_workload = _schema_override(args.kind, args.modules)
    if args.layers_out is not None:
        from layers import LayerClock, install

        clock = LayerClock()
        install(clock)
        signal.signal(
            signal.SIGUSR1, lambda *_: clock.dump(args.layers_out)
        )
    return cli.main(argv[split + 1:])


if __name__ == "__main__":
    sys.exit(main())

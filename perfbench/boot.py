"""Run a ``repro`` CLI command with the benchmark's span wrappers installed.

    python perfbench/boot.py DUMP.json serve --store S.sqlite ...

Installs :mod:`spans` around the public functions of every layer, calls
``repro.cli.main(argv)``, and when the command returns (a server after
``POST /shutdown``, ``dse-launch`` when its sweep is done) writes its
spans plus a snapshot of the process's metrics registry to
``DUMP.json``.

    python perfbench/boot.py --setup-probe STORE

times ``import repro.dse`` plus opening ``STORE`` in a fresh process
and prints the seconds: the local workload's set-up time.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _setup_probe(store: str) -> int:
    started = time.perf_counter()
    from repro.dse import open_store

    open_store(store)
    print(time.perf_counter() - started)
    return 0


def _traced(dump: str, argv: list[str]) -> int:
    sys.path.insert(0, str(HERE))
    import spans

    tracer = spans.Tracer()
    spans.install(tracer, server=True)
    from repro import cli
    from repro.dse import lowered_for
    from repro.obs.metrics import get_registry

    try:
        return cli.main(argv)
    finally:
        summary = tracer.snapshot()
        summary["registry"] = get_registry().snapshot()
        summary["lowered_cache"] = lowered_for.cache_info()._asdict()
        partial = dump + ".partial"
        with open(partial, "w") as handle:
            json.dump(summary, handle)
        os.replace(partial, dump)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--setup-probe":
        return _setup_probe(argv[1])
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    return _traced(argv[0], argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

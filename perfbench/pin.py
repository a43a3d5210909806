"""Derive ``pins.json``: scalar-evaluator digests of the generated sweeps.

    python3 perfbench/pin.py

For the default and the held-out seed, evaluates the first sweeps of
every stream with ``run_sweep(..., vectorize=False)`` -- the scalar
reference path -- and writes one digest per sweep.  Run it again only
when ``gen.py`` or ``EVAL_VERSION`` changes; the pinned prefix is sized
to cover what a run on a 2-core machine reaches in its window.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gen import LARGE_MEMORIES, SMALL_MEMORIES, Generator  # noqa: E402
from oracle import PINS, digest  # noqa: E402
from run import DEFAULT_SEED, HELD_OUT_SEED  # noqa: E402
from workloads import STORED_SWEEPS  # noqa: E402

#: stream -> (memories per sweep, sweeps pinned)
STREAMS = {
    "local": (LARGE_MEMORIES, 80),
    "stored": (SMALL_MEMORIES, STORED_SWEEPS),
    "fleet": (SMALL_MEMORIES, 16),
}


def main() -> int:
    from repro.dse import SweepSpec, clear_memo, run_sweep

    pins: dict = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        gen = Generator(seed)
        for stream, (memories, count) in STREAMS.items():
            digests = []
            for index in range(count):
                spec = SweepSpec.from_dict(gen.sweep(stream, index, memories))
                records = run_sweep(spec, vectorize=False).records
                digests.append(digest({r["hash"]: r for r in records}.values()))
                clear_memo()
            pins.setdefault(stream, {})[str(seed)] = digests
            print(f"seed {seed}: {stream} x {count}", flush=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Correctness oracle: every record a run receives is checked.

Expected records come from the scalar evaluator (``vectorize=False``),
the reference the vectorized path is pinned to.  For the default and
the held-out seed, ``pins.json`` holds one digest per generated sweep
(the first sweeps of each stream), derived once by ``pin.py``; a sweep
past the pinned prefix, or any sweep of another seed, is spot-checked
by re-evaluating a seeded sample of its points on the scalar path.
A mismatch fails the run; it is never averaged into a metric.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

PINS = Path(__file__).resolve().parent / "pins.json"
SPOT_CHECKS = 8  # scalar re-evaluations per sweep without a pin


def digest(records) -> str:
    """Order-free digest of a record set (canonical JSON, hash order)."""
    h = hashlib.sha256()
    for record in sorted(records, key=lambda r: r["hash"]):
        h.update(json.dumps(record, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


class Oracle:
    """Checks sweeps of one generated stream against scalar evaluation."""

    def __init__(self, seed: int, stream: str):
        self.seed = seed
        self.stream = stream
        with open(PINS) as handle:
            self.pinned = json.load(handle).get(stream, {}).get(str(seed), [])
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def check_sweep(self, index: int, spec_dict: dict, records: dict) -> bool:
        """Check ``records`` (hash -> record) of sweep ``index``.

        Returns True when a pinned digest covered the whole record set;
        otherwise only a seeded sample of points was re-evaluated.
        """
        if index < len(self.pinned):
            if digest(records.values()) != self.pinned[index]:
                self.fail(f"{self.stream} sweep {index}: not the pinned digest")
            return True
        from repro.dse import SweepSpec, evaluate_point

        points = spec_dict["points"]
        rng = random.Random(f"{self.seed}:{self.stream}:{index}:oracle")
        sample = rng.sample(range(len(points)), min(SPOT_CHECKS, len(points)))
        for point in SweepSpec.from_dict({"points": [points[i] for i in sample]}):
            key = point.config_hash()
            if records.get(key) != evaluate_point(point):
                self.fail(
                    f"{self.stream} sweep {index}: record {key[:12]} differs "
                    "from the scalar evaluator"
                )
        return False

"""A committed JSONL store, reproduced byte for byte on every interpreter.

``golden_store.jsonl`` holds the records of :func:`golden_spec`, written
by ``run_sweep`` on Python 3.11.  Re-running the spec into a fresh store
must give the same file bytes -- vectorized and scalar, with no float
tolerance -- so a change to any aggregate's summation order (Python
3.12's compensated ``sum()``, a pairwise numpy reduction) or to the
record format fails here, not silently in a store shared across
interpreters.

The spec lists its points grouped by lowered-workload key, so the
vectorized engine's chunk order is the point order the scalar path
writes in, and both runs produce the same line order.  After an
intentional model change (which also bumps ``EVAL_VERSION``), delete
the file and regenerate it with ``run_sweep(golden_spec(), store=GOLDEN)``
in a fresh process.
"""

from pathlib import Path

import pytest

from repro.dse import SweepSpec, build_network, clear_memo, run_sweep
from repro.dse.spec import PLATFORM_NAMES
from repro.nn import WORKLOAD_BUILDERS

GOLDEN = Path(__file__).with_name("golden_store.jsonl")
BITS = (2, 4, 8)


def _perlayer(workload: str) -> str:
    count = len(build_network(workload).weighted_layers)
    pairs = (f"{BITS[i % 3]}x{BITS[(i + 1) % 3]}" for i in range(count))
    return "perlayer-" + "-".join(pairs)


def golden_spec() -> SweepSpec:
    """102 points: every workload and platform, DDR4 and HBM2, a named and
    a per-layer policy, the default and a small batch, and GPU points."""
    points = []
    for workload in WORKLOAD_BUILDERS:
        combos = [
            ("paper-heterogeneous", None),
            ("paper-heterogeneous", 2),
            (_perlayer(workload), None),
            (_perlayer(workload), 2),
        ]
        for combo, (policy, batch) in enumerate(combos):
            for index, platform in enumerate(PLATFORM_NAMES):
                memories = ("ddr4", "hbm2")
                if combo:
                    memories = (memories[(combo + index) % 2],)
                for memory in memories:
                    points.append(
                        {
                            "workload": workload,
                            "policy": policy,
                            "batch": batch,
                            "platform": platform,
                            "memory": memory,
                        }
                    )
            if combo == 0:
                for precision in (8, 4):
                    points.append(
                        {
                            "workload": workload,
                            "policy": policy,
                            "gpu": "rtx-2080-ti",
                            "precision": precision,
                        }
                    )
    return SweepSpec.from_dict({"points": points})


@pytest.mark.parametrize("vectorize", [True, False], ids=["vectorized", "scalar"])
def test_store_bytes_match_the_golden_store(tmp_path, vectorize):
    clear_memo()  # memo hits would be written first, out of point order
    store = tmp_path / "golden.jsonl"
    result = run_sweep(golden_spec(), store=store, vectorize=vectorize)
    assert result.evaluated == 102
    assert store.read_bytes() == GOLDEN.read_bytes()

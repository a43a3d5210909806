"""Seeded sweep generation: the only inputs the program under test sees.

Every sweep is a plain ``SweepSpec.to_dict()``-format dict (explicit
``points``); nothing else crosses into the program, so a change cannot
key its behaviour on how this generator works.  The same ``(seed,
stream, index)`` always yields the same dict, and different indices of
one stream share no config: each sweep draws fresh scaled memory
bandwidths, so a cold sweep is cold for the memo and the store alike.

The axes follow the paper's exploration: the six Table I networks, the
three accelerator platforms, DDR4 and HBM2 with seeded bandwidth
scaling, named bitwidth policies plus seeded per-layer policies, and
batches.
"""

from __future__ import annotations

import dataclasses
import random

WORKLOADS = ("AlexNet", "Inception-v1", "ResNet-18", "ResNet-50", "RNN", "LSTM")
PLATFORMS = ("tpu", "bitfusion", "bpvec")
NAMED_POLICIES = (
    "homogeneous-8bit",
    "paper-heterogeneous",
    "uniform-4x4",
    "uniform-2x8",
    "uniform-8x4",
)
BATCHES = (None, 1, 2, 4, 8, 16, 32, 64, 128, 256)
BITS = (2, 4, 8)

#: Sweep sizes: 6 workloads x 3 platforms x memories x 3 policies x 3 batches.
LARGE_MEMORIES = 6  # 972 points: the ~1k-point local cold sweep
SMALL_MEMORIES = 3  # 486 points: served and fleet sweeps


class Generator:
    """Seeded spec-dict factory; one instance per benchmark run."""

    def __init__(self, seed: int):
        from repro.dse import build_network, resolve_memory, resolve_platform

        self.seed = int(seed)
        self._platforms = {
            name: dataclasses.asdict(resolve_platform(name)) for name in PLATFORMS
        }
        self._memories = {
            name: dataclasses.asdict(resolve_memory(name)) for name in ("ddr4", "hbm2")
        }
        self._layers = {w: len(build_network(w).weighted_layers) for w in WORKLOADS}

    def _rng(self, stream: str, index: int) -> random.Random:
        return random.Random(f"{self.seed}:{stream}:{index}")

    def _memory(self, rng: random.Random, base: str) -> dict:
        memory = dict(self._memories[base])
        scale = rng.uniform(0.25, 4.0)
        memory["bandwidth_gb_s"] = memory["bandwidth_gb_s"] * scale
        memory["name"] = f"{memory['name']}x{scale:.4f}"
        return memory

    def _perlayer(self, rng: random.Random, workload: str) -> str:
        pairs = "-".join(
            f"{rng.choice(BITS)}x{rng.choice(BITS)}"
            for _ in range(self._layers[workload])
        )
        return f"perlayer-{pairs}"

    def sweep(self, stream: str, index: int, memories: int) -> dict:
        """Sweep ``index`` of ``stream``: ``6 * 3 * memories * 9`` points."""
        rng = self._rng(stream, index)
        mems = [
            self._memory(rng, "ddr4" if i % 2 == 0 else "hbm2")
            for i in range(memories)
        ]
        batches = rng.sample(BATCHES, 3)
        points = []
        for workload in WORKLOADS:
            policies = [rng.choice(NAMED_POLICIES)] + [
                self._perlayer(rng, workload) for _ in range(2)
            ]
            for policy in policies:
                for batch in batches:
                    for platform in PLATFORMS:
                        for memory in mems:
                            point = {
                                "workload": workload,
                                "policy": policy,
                                "platform": self._platforms[platform],
                                "memory": memory,
                            }
                            if batch is not None:
                                point["batch"] = batch
                            points.append(point)
        return {"points": points}


#: Zipf exponent of served-read's re-submits: with it, about 40 % of the
#: re-submitted sweeps come from the server's memo and 60 % from the store.
ZIPF_S = 1.1


def zipf(rng: random.Random, n: int) -> int:
    """A Zipf-skewed index in ``[0, n)``: low indices are hot."""
    weights = [1.0 / (k + 1) ** ZIPF_S for k in range(n)]
    return rng.choices(range(n), weights=weights)[0]

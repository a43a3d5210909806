"""repro: reproduction of Bit-Parallel Vector Composability (BPVeC, DAC 2020).

Subpackages
-----------
core:
    The paper's contribution -- bit-slicing math, NBVE/CVU functional models,
    composition planning (Section II-III).
hw:
    Hardware cost substrate -- gate-level power/area models, SRAM/DRAM
    models, Table II platform configurations.
nn:
    DNN intermediate representation and the six evaluated workloads
    (Table I).
quant:
    Linear quantization and numpy quantized inference running on the
    composed arithmetic.
sim:
    Tiled systolic-accelerator performance/energy simulator.
baselines:
    TPU-like, BitFusion, and RTX 2080 Ti comparison models.
dse:
    Batched, cached design-space exploration: declarative sweep specs,
    a memoized, vectorized evaluation layer with persistent result
    stores, and Pareto/top-k/geomean queries.
experiments:
    Drivers that regenerate every figure and table of the evaluation
    (running on the DSE engine).
"""

__version__ = "1.0.0"

"""DNN intermediate representation and the paper's evaluated workloads."""

from .._lazy import lazy_exports

__all__ = [
    "ALL_4BIT_MODELS",
    "FIRST_LAST_8BIT_MODELS",
    "homogeneous_8bit",
    "paper_heterogeneous",
    "uniform",
    "LayerBitwidth",
    "Network",
    "Conv2D",
    "Dense",
    "Gemm",
    "Layer",
    "LSTMCell",
    "Pool2D",
    "RNNCell",
    "EVALUATION_CNN_BATCH",
    "WORKLOAD_BUILDERS",
    "evaluation_workloads",
    "alexnet",
    "inception_v1",
    "lstm_workload",
    "paper_workloads",
    "resnet18",
    "resnet50",
    "rnn_workload",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "bitwidths": (
            "ALL_4BIT_MODELS",
            "FIRST_LAST_8BIT_MODELS",
            "homogeneous_8bit",
            "paper_heterogeneous",
            "uniform",
        ),
        "graph": ("LayerBitwidth", "Network"),
        "layers": ("Conv2D", "Dense", "Gemm", "Layer", "LSTMCell", "Pool2D", "RNNCell"),
        "models": (
            "EVALUATION_CNN_BATCH",
            "WORKLOAD_BUILDERS",
            "evaluation_workloads",
            "alexnet",
            "inception_v1",
            "lstm_workload",
            "paper_workloads",
            "resnet18",
            "resnet50",
            "rnn_workload",
        ),
    },
)

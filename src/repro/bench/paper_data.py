"""The paper's reported numbers, as data.

Table 2's speedup bands, Table 3's average relative errors and Tables 4/5's
training accelerations, transcribed from the paper.  Two uses:

* the benchmark output prints them side by side with our measurements;
* `tests/test_reproduction_quality.py` turns "the reproduction tracks the
  paper" into regression tests with explicit tolerances, so a future change
  that silently degrades fidelity fails CI.

Values are data, not targets: nothing in the model is fitted to them beyond
the five calibration constants (see EXPERIMENTS.md).
"""

from __future__ import annotations

__all__ = [
    "PAPER_TABLE2_FASTEST",
    "PAPER_TABLE2_NHWC",
    "PAPER_TABLE3_GAMMA",
    "PAPER_TABLE3_CUGEMM",
    "PAPER_TABLE4_ACCEL",
    "PAPER_TABLE5_ACCEL",
    "PAPER_ABSTRACT_ENVELOPE",
]

#: Table 2, "Fastest Algorithm" columns: (kernel, device) -> (lo, hi).
PAPER_TABLE2_FASTEST: dict[tuple[str, str], tuple[float, float]] = {
    ("Gamma_8(4,5)", "RTX3060Ti"): (0.989, 1.516),
    ("Gamma_8(5,4)", "RTX3060Ti"): (0.929, 1.384),
    ("Gamma_8(3,6)", "RTX3060Ti"): (0.991, 1.354),
    ("Gamma_8(6,3)", "RTX3060Ti"): (0.960, 1.221),
    ("Gamma_8(2,7)", "RTX3060Ti"): (0.852, 1.076),
    ("Gamma_8(7,2)", "RTX3060Ti"): (0.841, 1.243),
    ("Gamma_16(10,7)", "RTX3060Ti"): (1.148, 1.821),
    ("Gamma_16(9,8)", "RTX3060Ti"): (1.445, 2.050),
    ("Gamma_16(8,9)", "RTX3060Ti"): (1.321, 1.976),
    ("Gamma_8(4,5)", "RTX4090"): (0.895, 1.442),
    ("Gamma_8(5,4)", "RTX4090"): (0.910, 1.386),
    ("Gamma_8(3,6)", "RTX4090"): (0.918, 1.298),
    ("Gamma_8(6,3)", "RTX4090"): (0.938, 1.477),
    ("Gamma_8(2,7)", "RTX4090"): (0.861, 0.968),
    ("Gamma_8(7,2)", "RTX4090"): (0.788, 1.034),
    ("Gamma_16(10,7)", "RTX4090"): (1.118, 1.725),
    ("Gamma_16(9,8)", "RTX4090"): (1.293, 1.671),
    ("Gamma_16(8,9)", "RTX4090"): (1.264, 1.664),
}

#: Table 2, "NHWC GEMM" columns where the paper prints them: where NHWC GEMM
#: was the fastest algorithm (Gamma_8(4,5) and Gamma_8(5,4) on the RTX 4090)
#: both columns hold the same band.
PAPER_TABLE2_NHWC: dict[tuple[str, str], tuple[float, float]] = {
    ("Gamma_8(5,4)", "RTX3060Ti"): (0.893, 1.386),
    ("Gamma_8(6,3)", "RTX3060Ti"): (0.960, 1.358),
    ("Gamma_8(2,7)", "RTX3060Ti"): (0.887, 1.110),
    ("Gamma_16(10,7)", "RTX3060Ti"): (1.148, 1.842),
    ("Gamma_16(9,8)", "RTX3060Ti"): (1.445, 2.233),
    ("Gamma_8(4,5)", "RTX4090"): (0.895, 1.442),
    ("Gamma_8(5,4)", "RTX4090"): (0.910, 1.386),
    ("Gamma_8(6,3)", "RTX4090"): (0.947, 2.074),
    ("Gamma_8(2,7)", "RTX4090"): (0.861, 1.087),
    ("Gamma_8(7,2)", "RTX4090"): (0.788, 1.428),
    ("Gamma_16(10,7)", "RTX4090"): (1.118, 1.895),
    ("Gamma_16(9,8)", "RTX4090"): (1.293, 1.708),
}

#: Table 3: kernel -> list of the paper's per-shape average relative errors
#: (ordered as the TABLE3_SHAPES shape lists).
PAPER_TABLE3_GAMMA: dict[str, list[float]] = {
    "Gamma_8(7,2)": [1.43e-7, 2.01e-7, 2.90e-7, 4.31e-7],
    "Gamma_8(6,3)": [2.04e-7, 2.69e-7, 3.68e-7, 5.20e-7],
    "Gamma_8(5,4)": [2.09e-7, 3.12e-7, 4.93e-7, 8.28e-7],
    "Gamma_8(4,5)": [2.10e-7, 3.05e-7, 4.57e-7, 7.21e-7],
    "Gamma_8(3,6)": [2.65e-7, 3.99e-7, 6.40e-7, 1.12e-6],
    "Gamma_8(2,7)": [2.56e-7, 3.80e-7, 5.89e-7, 9.75e-7],
    "Gamma_16(10,7)": [1.04e-5, 1.12e-5, 1.27e-5, 1.59e-5],
    "Gamma_16(9,8)": [9.86e-6, 1.04e-5, 1.18e-5, 1.48e-5],
    "Gamma_16(8,9)": [9.66e-6, 1.02e-5, 1.13e-5, 1.40e-5],
}

PAPER_TABLE3_CUGEMM: dict[str, list[float]] = {
    "Gamma_8(7,2)": [1.87e-7, 2.63e-7, 1.30e-5, 2.33e-5],
    "Gamma_8(6,3)": [1.14e-5, 1.49e-5, 2.92e-5, 5.59e-5],
    "Gamma_8(5,4)": [1.29e-5, 2.52e-5, 4.67e-5, 7.91e-5],
    "Gamma_8(4,5)": [2.02e-5, 3.96e-5, 7.80e-5, 1.45e-4],
    "Gamma_8(3,6)": [3.08e-5, 5.80e-5, 1.05e-4, 8.62e-5],
    "Gamma_8(2,7)": [3.93e-5, 7.88e-5, 7.43e-5, 8.92e-5],
    "Gamma_16(10,7)": [3.88e-5, 7.60e-5, 6.94e-5, 1.15e-4],
    "Gamma_16(9,8)": [5.21e-5, 1.02e-4, 1.89e-4, 1.62e-4],
    "Gamma_16(8,9)": [6.83e-5, 1.33e-4, 2.46e-4, 1.35e-4],
}

#: Table 4 (ILSVRC2012): network -> paper's epoch-time acceleration.
PAPER_TABLE4_ACCEL: dict[str, float] = {
    "ResNet18": 1.510,
    "ResNet34": 1.411,
    "VGG16": 1.387,
    "VGG19": 1.472,
    "VGG16x5": 2.021,
    "VGG16x7": 1.636,
}

#: Table 5 (Cifar10): (network, optimizer) -> paper's acceleration.
PAPER_TABLE5_ACCEL: dict[tuple[str, str], float] = {
    ("ResNet18", "adam"): 1.157,
    ("ResNet18", "sgdm"): 1.135,
    ("ResNet34", "adam"): 1.146,
    ("ResNet34", "sgdm"): 1.124,
    ("VGG16", "adam"): 1.205,
    ("VGG16", "sgdm"): 1.189,
    ("VGG19", "adam"): 1.168,
    ("VGG19", "sgdm"): 1.167,
    ("VGG16x5", "adam"): 1.454,
    ("VGG16x5", "sgdm"): 1.441,
}

#: Abstract: "0.788x to 2.05x speedup over the fastest benchmark algorithm".
PAPER_ABSTRACT_ENVELOPE: tuple[float, float] = (0.788, 2.05)

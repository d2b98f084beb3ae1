"""Table 2: speedup of Im2col-Winograd over cuDNN.

For each of the paper's nine kernels on both devices, the min-max speedup
band over (a) the fastest cuDNN benchmark algorithm per shape and (b) the
NHWC Implicit_Precomp_GEMM, computed over the corresponding Figure 8/9
shape list with the base variant including filter transposition — the
measurement Table 2 summarises.  The speedups come from
:func:`repro.bench.report.table2_speedups`; the paper's bands from
:mod:`repro.bench.paper_data`.
"""

from __future__ import annotations

from repro.bench.report import render_table2, table2_speedups


def test_table2_speedup(benchmark, artifact):
    text = benchmark(render_table2)
    artifact("table2_speedup", text)


def test_table2_overall_band_matches_paper_envelope():
    """Abstract claim: 0.788x to 2.05x over the fastest benchmark algorithm.
    The model's overall envelope must land in the same regime."""
    fastest = [s for vs_fastest, _ in table2_speedups().values() for s in vs_fastest]
    lo, hi = min(fastest), max(fastest)
    assert 0.6 < lo < 1.05, lo
    assert 1.5 < hi < 2.6, hi


if __name__ == "__main__":
    print(render_table2())

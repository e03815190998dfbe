"""Figure 10 — scalability to faster future memories.

Paper shapes: against a DDR4-2400-only baseline, the overclocked
HBM-only configuration is ~40 % faster than the future TLM; MemPod is
the most-improved migrating mechanism (paper: 24 % over TLM vs THM's
13 % and HMA's 2 %); CAMEO recovers to roughly TLM parity (the paper:
1 % degradation); and MemPod's margin over TLM is at least as large as
in the current-technology experiment (it scales with the widening
latency ratio).
"""

from conftest import emit

from repro.experiments import run_fig10


def test_fig10_scalability(benchmark, config, results_dir):
    result = benchmark.pedantic(lambda: run_fig10(config), rounds=1, iterations=1)
    emit(results_dir, "fig10_scalability", result.format_table())

    # The overclocked-HBM-only bound clearly beats the future TLM.
    assert result.average("hbm-only") < result.average("tlm")

    # MemPod is the best migrating mechanism in the future machine too.
    assert result.average("mempod") < result.average("thm")
    assert result.average("mempod") < result.average("cameo")

    # Everything is normalised to the slow-only machine, so the hybrid
    # TLM itself must already improve on it.
    assert result.average("tlm") < 1.0

"""Figure 8 — the headline mechanism comparison over all workloads.

Paper shapes checked (see EXPERIMENTS.md for magnitude discussion):

* HBM-only is the best configuration on average (the upper bound);
* MemPod is the best *migrating* mechanism on average;
* CAMEO degrades AMMAT on average at the 1:8 capacity ratio (the paper:
  +41 %) and moves the most data despite its small migration unit;
* migration is *harmful* for bwaves (the no-migration TLM wins);
* hot-set workloads improve under MemPod (ratio < 1).
"""

from conftest import emit

from repro.experiments import run_comparison


def test_fig8_performance(benchmark, config, results_dir):
    result = benchmark.pedantic(
        lambda: run_comparison(config), rounds=1, iterations=1
    )
    emit(results_dir, "fig8_performance", result.format_table())
    emit(results_dir, "fig8_traffic", result.format_traffic())

    avg = {m: result.average(m) for m in result.mechanisms}

    # HBM-only is the upper bound.
    assert avg["hbm-only"] == min(avg.values())
    assert avg["hbm-only"] < 1.0

    # MemPod beats every other migrating mechanism on average.
    assert avg["mempod"] < avg["thm"]
    assert avg["mempod"] < avg["cameo"]

    # CAMEO degrades on average at the 1:8 ratio.
    assert avg["cameo"] > 1.0

    per = result.normalized
    # bwaves: migration hurts; the no-migration baseline wins.
    if "bwaves" in per:
        assert per["bwaves"]["mempod"] > 1.0

    # Hot-set workloads improve under MemPod.
    for name in ("cactus", "omnetpp", "xalanc"):
        if name in per:
            assert per[name]["mempod"] < 1.0, f"{name} should improve under MemPod"

    # CAMEO moves the most data (paper: 3.9 GB vs MemPod's 3.1 GB).
    if result.bytes_moved("mempod"):
        assert result.bytes_moved("cameo") > result.bytes_moved("thm")

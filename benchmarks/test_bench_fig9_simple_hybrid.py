"""Fig. 9 / §5.4 bench (extra): HEP vs simple hybrid (NE + random)."""
from repro.harness import print_rows, run_fig9

from ._scales import BENCH_SCALE, K


def test_bench_fig9(benchmark):
    rows = benchmark.pedantic(
        lambda: run_fig9(scale=0.5 * BENCH_SCALE, k=K), rounds=1, iterations=1
    )
    print_rows(f"Fig. 9 (HEP vs simple hybrid, OK analog, k={K})", rows)
    by = {r["tau"]: r for r in rows}
    # claim (1), in direction only: NE++ (on Python scalars) is faster
    # than NE (kept with its reference bookkeeping) at every τ. The
    # paper's up-to-20× gap is partly a C++ cache-locality effect that a
    # Python port does not show (see EXPERIMENTS.md), so no factor is
    # asserted beyond the 2× bound at τ=100.
    assert by[100.0]["t_inmem_hep_s"] < 2.0 * by[100.0]["t_inmem_simple_s"]
    assert by[1.0]["t_inmem_hep_s"] < by[1.0]["t_inmem_simple_s"]
    for tau, r in by.items():
        assert r["t_inmem_hep_s"] < r["t_inmem_simple_s"], tau
    # claim (3): at τ=1 informed HDRF clearly beats random streaming
    assert by[1.0]["rf_ratio"] > 1.1

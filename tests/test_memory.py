"""Working-set regression tests: the traced allocation peak of the largest
passes stays bounded.  Each peak is the tracemalloc high-water mark during
one call, above what was allocated before it, so it counts every numpy
buffer and temporary the call makes and nothing the test process held."""

import tracemalloc

from gkdvlab.estimates import check_exponential_lemmas
from gkdvlab.evolution import PicardConfig, picard_solve
from gkdvlab.harness import RunConfig, initial_state

MIB = 2**20


def traced_peak(fn):
    """fn() and the bytes of the tracemalloc peak during it above the traced
    size before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_picard_solve_peak():
    # the picard benchmark problem: N = 256, 192 nodes over t = 0.025, p = 1;
    # 6.96 MiB with one RHS buffer set over the whole node stack and fresh
    # node-stack temporaries at the iterate update, 4.08 MiB in node blocks
    # with four complex node stacks, 3.45 MiB with three
    state = initial_state(RunConfig(num_points=256))
    cfg = PicardConfig(t_window=0.025, num_nodes=192, max_iters=25)
    res, peak = traced_peak(lambda: picard_solve(state, cfg, 1))
    assert res.converged
    assert peak < 3.8 * MIB


def test_exponential_lemmas_peak():
    # the default grid: 3.09 MiB with the full (zeta, z1, z2) triangle-split
    # grid alive, 0.39 MiB one z1 plane at a time
    table, peak = traced_peak(check_exponential_lemmas)
    assert table["passed"]
    assert peak < 1.0 * MIB

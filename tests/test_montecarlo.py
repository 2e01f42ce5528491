"""Replication and QQ point generation."""

import concurrent.futures
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from contamclt import montecarlo
from contamclt.analytic import grid_walk, kolmogorov_distance_to_normal
from contamclt.model import ContaminationScheme, StdLaplace, StdNormal
from contamclt.montecarlo import qq_points, replicate
from stream_oracle import oracle_generator

NORMAL = StdNormal()
UNCONTAMINATED = ContaminationScheme.uncontaminated()
CASE3 = ContaminationScheme.power_law(0.1, 1.0, 4.0, 1.0)


def test_single_observation_statistic_is_centered_draw():
    # s_1 = 1, so the statistic equals X_1 - mu exactly
    stat = replicate(1, 1, UNCONTAMINATED, NORMAL, 5.0, 17).samples[0]
    manual = oracle_generator(17, 0)
    manual.random(1)
    assert stat == manual.standard_normal()


def test_uncontaminated_replicates_close_to_normal():
    r = replicate(5000, 1000, UNCONTAMINATED, NORMAL, 0.0, 42)
    assert r.ks_statistic < 0.03


def test_replicate_deterministic_for_fixed_seed():
    a = replicate(300, 100, CASE3, NORMAL, 1.0, 9)
    b = replicate(300, 100, CASE3, NORMAL, 1.0, 9)
    assert (a.s_n, a.ks_statistic) == (b.s_n, b.ks_statistic)
    assert np.array_equal(a.samples.view(np.int64), b.samples.view(np.int64))


def test_replicate_worker_count_invariant():
    one = replicate(400, 120, CASE3, NORMAL, 0.0, 77, workers=1)
    eight = replicate(400, 120, CASE3, NORMAL, 0.0, 77, workers=8)
    assert np.array_equal(np.sort(one.samples), np.sort(eight.samples))
    assert np.array_equal(one.samples, eight.samples)
    assert one.ks_statistic == eight.ks_statistic


def _pin_cpus(monkeypatch, usable, machine=64):
    """The process may run on ``usable`` of the machine's ``machine`` CPUs."""
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity",
                        lambda pid: set(range(usable)), raising=False)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: machine)


def test_replicate_pool_is_capped_by_cpus_and_tasks(monkeypatch):
    # an in-process fake stands in for the pool, so no process is started: a
    # huge worker count must not become a huge pool, and the samples stay
    # those of workers=1
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    _pin_cpus(monkeypatch, 2)
    many = replicate(40, 30, CASE3, NORMAL, 0.0, 5, workers=10 ** 6)
    one = replicate(40, 30, CASE3, NORMAL, 0.0, 5, workers=1)
    assert sizes == [2]
    assert np.array_equal(many.samples.view(np.int64), one.samples.view(np.int64))


def test_replicate_starts_no_pool_of_one(monkeypatch):
    # one task, or one CPU, caps the pool at one process: the replicates then
    # run in the caller instead of being pickled to a single child.  Without
    # an affinity call the CPU count is the machine's.
    single = replicate(1, 100, CASE3, NORMAL, 0.0, 5, workers=1)
    forty = replicate(40, 30, CASE3, NORMAL, 0.0, 5, workers=1)

    class NoPool:
        def __init__(self, max_workers):
            raise AssertionError(f"started a pool of {max_workers}")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    runs = [(replicate(1, 100, CASE3, NORMAL, 0.0, 5, workers=2), single)]
    monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 1)
    runs.append((replicate(40, 30, CASE3, NORMAL, 0.0, 5, workers=4), forty))
    for run, want in runs:
        assert np.array_equal(run.samples.view(np.int64), want.samples.view(np.int64))


def test_replicate_counts_the_cpus_it_may_use(monkeypatch):
    # under taskset or a cpuset the process may use fewer CPUs than the
    # machine has: one usable CPU of eight starts no pool
    want = replicate(40, 30, CASE3, NORMAL, 0.0, 5, workers=1)

    class NoPool:
        def __init__(self, max_workers):
            raise AssertionError(f"started a pool of {max_workers}")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    _pin_cpus(monkeypatch, 1, machine=8)
    run = replicate(40, 30, CASE3, NORMAL, 0.0, 5, workers=4)
    assert np.array_equal(run.samples.view(np.int64), want.samples.view(np.int64))


def test_replicate_splits_tasks_by_the_capped_pool(monkeypatch):
    # the task count follows the pool, not the requested worker count, and
    # s_n is computed once, in the caller, not again in every task
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            self.size, self.tasks = max_workers, []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            self.tasks = list(tasks)
            return map(fn, self.tasks)

    stats_calls = []
    grid_walk = montecarlo.grid_walk
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    _pin_cpus(monkeypatch, 2)
    monkeypatch.setattr(montecarlo, "grid_walk",
                        lambda *args: stats_calls.append(args) or grid_walk(*args))
    runs = {w: replicate(400, 20, CASE3, NORMAL, 0.0, 5, workers=w) for w in (1, 2, 10 ** 6)}
    assert [pool.size for pool in pools] == [2, 2]
    assert all(1 < len(pool.tasks) <= 4 * pool.size for pool in pools)
    assert len(stats_calls) == 3
    for run in runs.values():
        assert np.array_equal(run.samples.view(np.int64), runs[1].samples.view(np.int64))


def test_replicate_block_boundaries_do_not_change_samples(monkeypatch):
    # 700 elements per row: 93 rows per reduction block, and R = 250 is not
    # a multiple of it, so blocks end mid-chunk at every worker count; tasks
    # of 7 replicates make 36 tasks, the last of 5
    R, n = 250, 700
    assert R % (montecarlo._BLOCK_ELEMS // n) != 0
    runs = [replicate(R, n, CASE3, NORMAL, 0.0, 31, workers=w).samples for w in (1, 2, 3)]
    monkeypatch.setattr(montecarlo, "_TASK_REPS", 7)
    assert -(-R // 7) == 36 and R % 7 == 5
    runs += [replicate(R, n, CASE3, NORMAL, 0.0, 31, workers=w).samples for w in (1, 2)]
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMS", 1)
    runs.append(replicate(R, n, CASE3, NORMAL, 0.0, 31).samples)
    for other in runs[1:]:
        assert np.array_equal(runs[0].view(np.int64), other.view(np.int64))


def test_each_task_derives_its_streams_in_one_call(monkeypatch):
    # one stream_generator call per task, of at most _TASK_REPS streams; the
    # calls cover the replicates [0, R) in order, each index exactly once
    calls = []
    stream_generator = montecarlo._rng.stream_generator

    def recording(master_seed, lo, hi):
        calls.append((lo, hi))
        return stream_generator(master_seed, lo, hi)

    class SerialPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(montecarlo._rng, "stream_generator", recording)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    _pin_cpus(monkeypatch, 2)
    R = 250
    for cap, workers, tasks in ((1 << 15, 1, 1), (1 << 15, 2, 8), (7, 1, 36), (7, 2, 36)):
        monkeypatch.setattr(montecarlo, "_TASK_REPS", cap)
        calls.clear()
        replicate(R, 30, CASE3, NORMAL, 0.0, 31, workers=workers)
        assert len(calls) == tasks, (cap, workers)
        assert all(0 < hi - lo <= cap for lo, hi in calls), (cap, workers)
        assert [i for lo, hi in calls for i in range(lo, hi)] == list(range(R)), (cap, workers)


def test_pooled_tasks_carry_the_row_weights_not_the_table(monkeypatch):
    # each task carries p_k and sigma_k for k = 1..n, not the scheme, so its
    # pickle stays near 16 n bytes however long a table is (a 10^5-row
    # table would add 1.6 MB to every task)
    rows, n = 10 ** 5, 200
    rng = np.random.default_rng(3)
    table = ContaminationScheme.tabular(0.1 * rng.random(rows), 1.0 + 9.0 * rng.random(rows))
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            sizes.extend(len(pickle.dumps(task)) for task in tasks)
            return map(fn, tasks)

    want = replicate(40, n, table, NORMAL, 0.0, 5, workers=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    _pin_cpus(monkeypatch, 2)
    run = replicate(40, n, table, NORMAL, 0.0, 5, workers=2)
    assert len(sizes) > 1 and max(sizes) <= 16 * n + 4096, sizes
    assert np.array_equal(run.samples.view(np.int64), want.samples.view(np.int64))


def test_single_replicate_ks_geometry():
    r = replicate(1, 50, UNCONTAMINATED, NORMAL, 0.0, 3)
    x1 = float(r.samples[0])
    assert r.ks_statistic >= 0.5 - abs(ndtr(x1) - 0.5)


def test_ks_field_matches_recomputation():
    r = replicate(200, 64, CASE3, NORMAL, 0.0, 5)
    assert r.ks_statistic == kolmogorov_distance_to_normal(r.samples)


def _statistic_fourth_moment(scheme, n, kappa=3.0):
    p, s2 = scheme.weights(n)
    var_k = (1.0 - p) + p * s2
    fourth_k = kappa * ((1.0 - p) + p * s2 ** 2)
    s4 = float(np.sum(var_k)) ** 2
    return 3.0 + float(np.sum(fourth_k - 3.0 * var_k ** 2)) / s4


def test_statistic_moments_match_construction():
    # E[T] = 0 and Var[T] = 1 exactly; bands from the exact fourth moment
    reps, n = 5000, 1000
    r = replicate(reps, n, CASE3, NORMAL, 0.0, 11)
    se_mean = 1.0 / math.sqrt(reps)
    se_var = math.sqrt((_statistic_fourth_moment(CASE3, n) - 1.0) / reps)
    assert abs(float(r.samples.mean())) <= 3 * se_mean
    assert abs(float(r.samples.var(ddof=1)) - 1.0) <= 3 * se_var


def test_statistic_mean_is_mu_invariant():
    # centering is algebraic, so a huge mu does not perturb the statistic
    a = replicate(50, 64, CASE3, NORMAL, 0.0, 21)
    b = replicate(50, 64, CASE3, NORMAL, 1e9, 21)
    assert np.array_equal(a.samples, b.samples)


def test_replicate_validation():
    with pytest.raises(ValueError):
        replicate(0, 10, CASE3, NORMAL, 0.0, 1)
    with pytest.raises(ValueError):
        replicate(10, 0, CASE3, NORMAL, 0.0, 1)
    with pytest.raises(ValueError):
        replicate(10, 10, CASE3, NORMAL, 0.0, 1, workers=0)


# ---------------------------------------------------------------------------
# empirical quantiles at the study's levels t = 0.005 * j, j = 1..199:
# E^-1(t) is the smallest x_(i) with i/R >= t
# ---------------------------------------------------------------------------

def _empirical(samples) -> dict:
    return {p.t: p.empirical for p in qq_points(samples)}


def test_generalized_inverse_convention_even_r():
    # smallest i with i/10 >= 0.5 is i = 5 -> x_(5); with i/10 >= 0.505, x_(6)
    got = _empirical(np.arange(10.0))
    assert (got[0.5], got[0.505]) == (4.0, 5.0)
    assert set(_empirical([3.0]).values()) == {3.0}


def test_generalized_inverse_handles_float_products():
    # 0.1 * 5000 rounds just above 500 in floats; the exact answer is i = 500
    assert _empirical(np.arange(5000.0))[0.1] == 499.0


def test_inverse_exact_at_ecdf_levels():
    # where a study level is a jump level i/R, the inverse is the i-th order statistic
    for r in (2, 4, 100, 200, 1000):
        samples = np.arange(float(r))[::-1]  # sorted by qq_points, not by the caller
        hits = 0
        for t, e in _empirical(samples).items():
            i = round(t * r)
            if i / r == t:
                assert e == float(i - 1), (r, t)
                hits += 1
        assert hits == min(r - 1, 199)


def test_inverse_nondecreasing():
    samples = np.random.default_rng(4).standard_normal(257)
    vals = list(_empirical(samples).values())
    assert np.all(np.diff(vals) >= 0.0)


def test_inverse_domain():
    with pytest.raises(ValueError):
        qq_points([])


# ---------------------------------------------------------------------------
# QQ points
# ---------------------------------------------------------------------------

def test_qq_self_consistency_on_exact_quantiles():
    # x_(i) = Phi^-1(i/R), and every study level is some i/R when R = 2000
    r = 2000
    samples = ndtri(np.arange(1, r) / r).tolist() + [math.inf]
    pts = qq_points(samples)
    assert max(abs(p.theoretical - p.empirical) for p in pts) < 1e-6


def test_replicate_memory_is_the_sums_and_one_sorted_copy(monkeypatch):
    # the sums are written in place and KS adds one sorted copy: about 2 * 8R
    # bytes, so a third array of R floats breaks the bound.  Tasks of 2**12
    # replicates keep their stream derivation near 1 MB, below 8R; tracemalloc
    # slows the row loop about fourfold, so R stays at 2e5.
    monkeypatch.setattr(montecarlo, "_TASK_REPS", 1 << 12)
    r = 200_000
    tracemalloc.start()
    try:
        replicate(r, 1, CASE3, NORMAL, 0.0, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * r


@pytest.mark.parametrize("dist", [NORMAL, StdLaplace()], ids=lambda d: d.kind)
def test_a_long_row_holds_its_weights_values_and_a_mask(dist, monkeypatch):
    # a row longer than a block holds p_k and sigma_k (16n bytes), its values
    # (8n) and the mask u_k < p_k (n), as its uniforms and base draws come in
    # 2**14-element pieces: a row of uniforms, or Laplace's copy of its draws,
    # would add 8n.  The weights are let go before s_n's walk begins.
    n, at_walk = 2 ** 20, []

    def walk(scheme, grid):
        at_walk.append(tracemalloc.get_traced_memory()[0])
        return grid_walk(scheme, grid)

    monkeypatch.setattr(montecarlo, "grid_walk", walk)
    tracemalloc.start()
    try:
        replicate(2, n, ContaminationScheme.power_law(0.2, 1.0, 20.0, 1.0), dist, 0.0, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 26 * n
    assert at_walk[0] < n


def test_qq_default_grid_has_199_points():
    grid = [p.t for p in qq_points([0.0])]
    assert len(grid) == 199
    assert grid[0] == pytest.approx(0.005) and grid[-1] == pytest.approx(0.995)


def test_qq_points_sorted_and_validated():
    samples = np.random.default_rng(1).standard_normal(100)
    levels = [p.t for p in qq_points(samples)]
    assert levels == sorted(set(levels))


def test_qq_band_for_seeded_normal_draws():
    # band calibrated by simulation over seeds before pinning this one
    draws = np.random.default_rng(42).standard_normal(5000)
    pts = qq_points(draws)
    assert max(abs(p.theoretical - p.empirical) for p in pts) < 0.15

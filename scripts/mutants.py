#!/usr/bin/env python3
"""Check that the tests kill a fixed list of one-line source mutants.

    python3 scripts/mutants.py

The working tree (without ``.git`` and build or test leftovers) is copied
once into a temporary directory.  Each mutant replaces one piece of text,
which must occur exactly once in its file and lie within one line, and then
runs ``python -m pytest -x`` on the tests it names, against the copy's
``src``; the file is restored before the next mutant.  Before any mutant,
the named tests must pass on the unmutated copy, so a kill means something.

A mutant is killed when pytest reports a failing test (exit code 1).  The
script prints one line per mutant and exits 1 if any mutant survives, does
not apply or stops pytest otherwise (a collection error, say).  It runs one
pytest process at a time, and it is not part of the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".bench_out", ".benchmarks")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # the certificate bound B of the residual sum's rounding error
    Mutant("drop-B", "src/contamclt/analytic.py",
           "math.ldexp(float((min(n, _LEAF) + k) * n), -105) * sigma[:, 0] + 2.0 ** -1074)",
           "2.0 ** -1074)",
           ("tests/test_exact_sums.py::test_near_midpoint_rows_need_the_whole_certificate_bound",)),
    # the carry out of (w0:w1) + inc into the high word
    Mutant("drop-seed-carry", "src/contamclt/rng.py",
           "(w0 + inc_hi + (a_lo < w1))", "(w0 + inc_hi)",
           ("tests/test_rng.py::test_pcg64_word_arithmetic_matches_python_ints",)),
    # the carry out of the low state word's final + inc
    Mutant("drop-state-carry", "src/contamclt/rng.py",
           "s_hi + (s_lo < inc_lo)", "s_hi",
           ("tests/test_rng.py::test_pcg64_word_arithmetic_matches_python_ints",)),
    # max|x| read from the row maxima alone, so a large negative entry gets too small a sigma
    Mutant("top-from-maxima-only", "src/contamclt/analytic.py",
           "np.maximum(r.max(axis=1), -r.min(axis=1))", "r.max(axis=1)",
           ("tests/test_exact_sums.py::test_matches_fsum",)),
    # the split skips the last column piece of a narrow scratch, or the whole block of a wide one
    Mutant("last-column-piece-skipped", "src/contamclt/analytic.py",
           "range(q.shape[1], n, q.shape[1]), axis=1):",
           "range(q.shape[1], n, q.shape[1]), axis=1)[:-1]:",
           ("tests/test_exact_sums.py::test_matches_fsum",)),
    # tau keeps only the last column piece's sum, which a block-wide scratch never shows
    Mutant("tau-last-piece-only", "src/contamclt/analytic.py",
           "tau += qx.sum(axis=1)", "tau = qx.sum(axis=1)",
           ("tests/test_exact_sums.py::test_matches_fsum",)),
    # a long row's select tests its base draws, not its uniforms, against p_k
    Mutant("mask-compares-draws", "src/contamclt/model.py",
           "where=mask)", "where=row < p)",
           ("tests/test_rng.py::test_replicate_equals_row_by_row_oracle_replay",)),
    # a long row's base-draw pass writes every piece at index 0
    Mutant("draw-piece-restarts", "src/contamclt/model.py",
           "dist.draw(rng, row[lo:lo + w])", "dist.draw(rng, row[:w])",
           ("tests/test_rng.py::test_replicate_equals_row_by_row_oracle_replay",)),
    # zip takes one generator too many when gens is not last
    Mutant("gens-first", "src/contamclt/model.py",
           "for row, ui, rng in zip(out, u, gens):", "for rng, row, ui in zip(gens, out, u):",
           ("tests/test_model.py::"
            "test_block_draw_equals_one_row_calls_and_takes_one_generator_per_row",)),
    # contamination with probability p_k means u_k < p_k, not u_k <= p_k
    Mutant("u-le-p", "src/contamclt/model.py",
           "where=u < p)", "where=u <= p)",
           ("tests/test_model.py::test_an_index_whose_uniform_equals_p_takes_the_base_branch",)),
    # a long row's uniforms held whole, as a block-wide scratch
    Mutant("long-row-whole-uniforms", "src/contamclt/montecarlo.py",
           "min(p.size, _PIECE) if step == 1 else p.size", "p.size",
           ("tests/test_montecarlo.py::test_a_long_row_holds_its_weights_values_and_a_mask",)),
    # the row weights kept alive through s_n's walk
    Mutant("weights-held-through-walk", "src/contamclt/montecarlo.py",
           "del p, sigma, tasks, _", "del tasks, _",
           ("tests/test_montecarlo.py::test_a_long_row_holds_its_weights_values_and_a_mask",)),
    # a task of any size, so one derivation may hold every stream of the run
    Mutant("drop-task-cap", "src/contamclt/montecarlo.py",
           "min(_TASK_REPS, R if pool_size == 1 else -(-R // (4 * pool_size)))",
           "(R if pool_size == 1 else -(-R // (4 * pool_size)))",
           ("tests/test_montecarlo.py::test_each_task_derives_its_streams_in_one_call",)),
    # a derivation one stream past its task, which no sample reads
    Mutant("one-stream-too-many", "src/contamclt/montecarlo.py",
           "_rng.stream_generator(master_seed, lo, hi)",
           "_rng.stream_generator(master_seed, lo, hi + 1)",
           ("tests/test_montecarlo.py::test_each_task_derives_its_streams_in_one_call",)),
    # every task's sums written at the front of the samples
    Mutant("sums-at-front", "src/contamclt/montecarlo.py",
           "samples[lo:hi] = sums", "samples[:hi - lo] = sums",
           ("tests/test_montecarlo.py::test_replicate_block_boundaries_do_not_change_samples",)),
    # QQ counts the levels at or below t, so at a level i/R it reads x_(i+1)
    Mutant("qq-bisect-right", "src/contamclt/montecarlo.py",
           "bisect.bisect_left(", "bisect.bisect_right(",
           ("tests/test_montecarlo.py::test_inverse_exact_at_ecdf_levels",
            "tests/test_analytic.py::"
            "test_qq_equals_the_whole_array_search_across_level_blocks")),
    # KS pairs each level block with the front of the sorted copy
    Mutant("ks-block-from-front", "src/contamclt/analytic.py",
           "phi = c[lo:lo + levels.size]", "phi = c[:levels.size]",
           ("tests/test_analytic.py::"
            "test_ks_equals_the_whole_array_formula_across_level_blocks",)),
    # every KS level block starts again at 1/r
    Mutant("levels-restart", "src/contamclt/analytic.py",
           "levels = np.arange(lo + 1, min(lo + _BLOCK, r) + 1,",
           "levels = np.arange(1, min(lo + _BLOCK, r) - lo + 1,",
           ("tests/test_analytic.py::"
            "test_ks_equals_the_whole_array_formula_across_level_blocks",)),
    # an unresolved largest-eps column read as index 1, not as the bound
    Mutant("unresolved-top-reads-one", "src/contamclt/analytic.py",
           "return lindeberg_upper_bound(scheme, n_grid)", "return 1.0",
           ("tests/test_analytic.py::test_index_estimate_equals_the_rule_over_all_columns",)),
    # only falling columns extrapolated, so a = b > 1, whose columns rise, reads the bound
    Mutant("one-sign-only", "src/contamclt/analytic.py",
           "if 0.0 not in diffs and", "if all(d < 0.0 for d in diffs) and",
           ("tests/test_analytic.py::"
            "test_index_estimate_matches_the_closed_form_index[0.05-1.5-2-1.5-normal]",)),
    # no column resolved by the conditions' converging-to-zero verdict
    Mutant("zero-verdict-off", "src/contamclt/analytic.py",
           "if _classify_trend(col)[0] is Trend.CONVERGING_TO_ZERO:", "if False:",
           ("tests/test_analytic.py::"
            "test_index_estimate_matches_the_closed_form_index[0.5-1.5-25-1-normal]",)),
    # the closed form skipped from a block's largest threshold, so for straddling blocks
    Mutant("skip-from-max-threshold", "src/contamclt/model.py",
           "if lo < self.zero_from:", "if hi < self.zero_from:",
           ("tests/test_model.py::"
            "test_truncated_moment_skips_the_closed_form_wholly_past_zero_from",
            "tests/test_analytic.py::test_blocked_lindeberg_values_equal_row_at_once")),
    # every row's base weight summed over the whole top row
    Mutant("base-weight-top-row", "src/contamclt/analytic.py",
           "float(np.sum(moment[:stats.n]))", "float(np.sum(moment))",
           ("tests/test_analytic.py::test_index_estimate_equals_the_rule_over_all_columns",)),
    # no memo, so each diagnostic walks the grid again
    Mutant("walk-memo-off", "src/contamclt/analytic.py",
           "@functools.lru_cache(maxsize=1)", "@functools.lru_cache(maxsize=0)",
           ("tests/test_experiment_cli.py::test_run_experiment_walks_the_grid_once",)),
    # tables equal whatever their sigma2_k, so the memo hands one table another's walk
    Mutant("memo-key-drops-sigma2", "src/contamclt/model.py",
           'sigma2_table: bytes = field(default=b"", repr=False)',
           'sigma2_table: bytes = field(default=b"", repr=False, compare=False)',
           ("tests/test_analytic.py::"
            "test_grid_walk_memo_gives_each_scheme_and_grid_its_own_walk",)),
    # a bad table entry named at the index before it
    Mutant("bad-index-one-off", "src/contamclt/model.py",
           "at index {i + 1}", "at index {i}",
           ("tests/test_model.py::"
            "test_tabular_names_the_first_bad_index_as_the_per_index_loop",)),
    # nested or scalar tabular columns taken as flat ones
    Mutant("tabular-takes-nested", "src/contamclt/model.py",
           "if p_arr.ndim != 1 or s_arr.ndim != 1:", "if False:",
           ("tests/test_model.py::test_tabular_refuses_unequal_nested_or_scalar_sequences",)),
    # tabular weights read from one entry past start - 1
    Mutant("weights-offset-start", "src/contamclt/model.py",
           "np.frombuffer(self.p_table)[start - 1:n]", "np.frombuffer(self.p_table)[start:n]",
           ("tests/test_model.py::test_tabular_weights_are_fresh_writable_slices",)),
    # the walk's sigma^2 maxima read from p sigma^2, as if after ``ps2 *= p``
    Mutant("walk-max-after-scale", "src/contamclt/analytic.py",
           "s2_max = [float(ps2[:n - lo].max()) for n in ends]",
           "s2_max = [float((ps2 * p)[:n - lo].max()) for n in ends]",
           ("tests/test_analytic.py::"
            "test_grid_walk_equals_chunked_fsums_and_maxima_of_one_fetch",)),
    # each prefix sum of the walk one index short
    Mutant("walk-row-short", "src/contamclt/analytic.py",
           "x[None, :m]", "x[None, :m - 1]",
           ("tests/test_analytic.py::test_hand_computed_cumulative_variance_at_n2",
            "tests/test_analytic.py::"
            "test_grid_walk_equals_chunked_fsums_and_maxima_of_one_fetch")),
    # tasks draw with sigma_k^2 where sigma_k belongs
    Mutant("task-sigma-unrooted", "src/contamclt/montecarlo.py",
           "np.sqrt(sigma, out=sigma)", "None",
           ("tests/test_montecarlo.py::test_statistic_moments_match_construction",)),
    # Lindeberg thresholds divided by sigma_k^2 where sigma_k belongs
    Mutant("lindeberg-sigma-unrooted", "src/contamclt/analytic.py",
           "np.sqrt(sigma, out=sigma)", "None",
           ("tests/test_pinned_diagnostics.py::test_diagnostics_match_pinned_bits",)),
    # inflated Lindeberg terms weighted by (1 - p_k) sigma_k^2, not p_k sigma_k^2
    Mutant("lindeberg-weights-one-minus-p", "src/contamclt/analytic.py",
           "ps2 = moment * sigma", "ps2 = (1.0 - moment) * sigma",
           ("tests/test_pinned_diagnostics.py::test_diagnostics_match_pinned_bits",)),
    # every echo slice after the first starts one float late, skipping one
    Mutant("echo-slice-starts-late", "src/contamclt/experiment.py",
           "range(0, len(self.values), self.SLICE)", "range(0, len(self.values), self.SLICE + 1)",
           ("tests/test_experiment_cli.py::"
            "test_emit_json_echoes_a_table_across_slice_boundaries",)),
)


def pytest_code(tree: str, tests) -> int:
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def verdict(tree: str, mutant: Mutant) -> str:
    path = os.path.join(tree, mutant.path)
    with open(path, encoding="utf-8") as f:
        source = f.read()
    if source.count(mutant.old) != 1 or "\n" in mutant.old + mutant.new:
        return "does not apply"
    with open(path, "w", encoding="utf-8") as f:
        f.write(source.replace(mutant.old, mutant.new))
    try:
        code = pytest_code(tree, mutant.tests)
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(source)
    return {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        tests = sorted({test for m in MUTANTS for test in m.tests})
        if pytest_code(tree, tests) != 0:
            print("the named tests fail on the unmutated tree", file=sys.stderr)
            return 2
        results = [(m.name, verdict(tree, m)) for m in MUTANTS]
    for name, result in results:
        print(f"{name}: {result}")
    survived = [name for name, result in results if result != "killed"]
    print(f"{len(results) - len(survived)} of {len(results)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())

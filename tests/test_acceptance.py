"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Budgets are wall-clock seconds and are asserted.

Criterion 3 holds the empirical KS over R = 5000 replicates of the
fast-decay and bounded-index regimes to the exact finite-n Kolmogorov
distance D_exact = sup_x |F_n(x) - Phi(x)| of T_n, computed by
characteristic-function inversion in tests/exact_law.py (which uses nothing
from the package).  By the triangle inequality
|KS - D_exact| <= sup_x |F_R(x) - F_n(x)|, and the Dvoretzky-Kiefer-Wolfowitz
inequality with Massart's constant bounds the right side by
eps = sqrt(ln(2/alpha) / 2R) = 0.0230 except with probability alpha = 0.01,
whatever the seed.  A fixed ceiling such as KS <= 0.05 is no test of the
sampler there: in the fast-decay regime (p=0.5, a=2, s2=25, b=1.5) the exact
distance at n = 1000 is already 0.054916, so a correct sampler meets the
ceiling only by seed luck.  The regime is still asymptotically normal:
D_exact falls to 0.0235 at n = 10^4.  The sublinear regime keeps its
ceiling, which its D_exact of 0.0037 clears by far more than eps.
"""

import json
import math
import pathlib
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from contamclt.analytic import (
    classify_power_law,
    condition_a,
    condition_b,
    condition_c,
    grid_walk,
    kolmogorov_distance_to_normal,
    lindeberg_index_estimate,
    lindeberg_upper_bound,
    Trend,
)
from contamclt.cli import EXIT_OK, main
from contamclt.experiment import DEFAULT_SEED
from contamclt.model import ContaminationScheme, SchemeKind, StdNormal
from contamclt.montecarlo import replicate
from exact_law import ExactLaw, dkw_band, power_law_weights
from test_analytic import lindeberg_row

NORMAL = StdNormal()
CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

REGIMES = {
    "case1": (0.5, 0.5, 25.0, 0.9),
    "case2": (0.5, 2.0, 25.0, 1.5),
    "case3-low": (0.1, 1.0, 4.0, 1.0),    # index 2/7
    "case3-mid": (0.25, 1.0, 4.0, 1.0),   # index 1/2
    "case3-high": (0.2, 1.0, 20.0, 1.0),  # index 4/5
}
STUDY_N = 1000
STUDY_REPS = 5000
ALPHA = 0.01
BAND = dkw_band(STUDY_REPS, ALPHA)  # 0.0230

# exact Kolmogorov distance of case2 at n = 1000, pinned via the independent
# mpmath characteristic-function inversion in scripts/compute_oracle_constants.py
D_EXACT_CASE2 = 0.054916236756502341


def _line(num: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: exact contamination-mass identity for matched exponents
# ---------------------------------------------------------------------------

def test_criterion_1_exact_mass_identity():
    start = time.perf_counter()
    failures = []
    for (p, a, s2, b) in [(0.1, 1.0, 4.0, 1.0), (0.5, 2.0, 25.0, 2.0)]:
        scheme = ContaminationScheme.power_law(p, a, s2, b)
        for n in (10, 10 ** 3, 10 ** 6):
            mass = grid_walk(scheme, (n,))[0].contamination_mass
            rel = abs(mass - p * s2) / (p * s2)
            if rel > 1e-12:
                failures.append(f"(p={p}, s2={s2}, n={n}): rel err {rel:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s >= 1 s")
    _line("1", not failures, f"contamination mass = p*s2 to 1e-12 rel ({elapsed:.2f} s)")
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 2: closed-form index with default grids
# ---------------------------------------------------------------------------

def test_criterion_2_closed_form_index():
    start = time.perf_counter()
    scheme = ContaminationScheme.power_law(0.1, 1.0, 4.0, 1.0)
    target = 0.4 / 1.4
    est = lindeberg_index_estimate(scheme, NORMAL)
    bound = lindeberg_upper_bound(scheme)
    elapsed = time.perf_counter() - start
    failures = []
    if not (target - 0.03 <= est <= target + 0.03):
        failures.append(f"estimate {est:.4f} outside {target:.4f} +- 0.03")
    if not (target - 0.01 <= bound <= target + 0.01):
        failures.append(f"bound {bound:.4f} outside {target:.4f} +- 0.01")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f} s >= 30 s")
    _line("2", not failures,
          f"estimate {est:.4f}, bound {bound:.4f}, target {target:.4f} ({elapsed:.1f} s)")
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 3: regime reproduction at study scale (n=1000, R=5000, fixed seed)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def regime_runs():
    runs = {}
    start = time.perf_counter()
    for key, (p, a, s2, b) in REGIMES.items():
        scheme = ContaminationScheme.power_law(p, a, s2, b)
        est = lindeberg_index_estimate(scheme, NORMAL)
        rep = replicate(STUDY_REPS, STUDY_N, scheme, NORMAL, 0.0, DEFAULT_SEED)
        runs[key] = {
            "scheme": scheme,
            "index": classify_power_law(p, a, s2, b).lindeberg_index,
            "estimate": est,
            "ks": rep.ks_statistic,
            "exact": ExactLaw(*power_law_weights(p, a, s2, b, STUDY_N)).distance()[0],
        }
    return runs, time.perf_counter() - start


def test_criterion_3_sublinear_regime(regime_runs):
    runs, _ = regime_runs
    r = runs["case1"]
    failures = []
    if r["estimate"] > 0.02:
        failures.append(f"index estimate {r['estimate']:.4f} > 0.02")
    if r["ks"] > 0.05:
        failures.append(f"KS {r['ks']:.4f} > 0.05")
    _line("3 (b<1)", not failures,
          f"estimate {r['estimate']:.4f}, KS {r['ks']:.4f} at seed {DEFAULT_SEED}")
    assert not failures, failures


def test_criterion_3_fast_decay_regime(regime_runs):
    """a > b >= 1: negligible index, and the KS is the exact distance up to sampling.

    The exact distance D_exact(1000) = 0.054916 is pinned from the mpmath
    derivation and must be reproduced by the in-test oracle to 1e-5.  The
    empirical KS must then lie within the DKW-Massart band eps = 0.0230
    (alpha = 0.01, R = 5000) of it.  The band is two-sided: standardizing by
    sqrt(n) instead of s_n gives KS 0.020 here, which passed the old ceiling
    KS <= 0.05 but falls below the band, and an inverted mixture select
    gives KS 0.50.
    """
    runs, _ = regime_runs
    r = runs["case2"]
    failures = []
    if r["estimate"] > 0.02:
        failures.append(f"index estimate {r['estimate']:.4f} > 0.02")
    if abs(r["exact"] - D_EXACT_CASE2) > 1e-5:
        failures.append(f"oracle distance {r['exact']:.6f} != pinned {D_EXACT_CASE2:.6f}")
    if abs(r["ks"] - r["exact"]) > BAND:
        failures.append(f"|KS {r['ks']:.4f} - D_exact {r['exact']:.4f}| > eps {BAND:.4f}")
    _line("3 (a>b)", not failures,
          f"estimate {r['estimate']:.4f}, KS {r['ks']:.4f}, D_exact {r['exact']:.4f}, "
          f"eps {BAND:.4f} at seed {DEFAULT_SEED}")
    assert not failures, failures


def test_criterion_3_bounded_regime_triple(regime_runs):
    """a = b = 1: KS tracks the index 2/7 < 1/2 < 4/5.

    The single-seed KS values of case3-low and case3-mid sit closer than one
    sampling band, so their order alone says little; the exact distances
    must follow the index order, and each KS must lie within eps of its
    exact distance.
    """
    runs, elapsed = regime_runs
    failures = []
    kss = []
    exact = []
    for key in ("case3-low", "case3-mid", "case3-high"):
        r = runs[key]
        kss.append(r["ks"])
        exact.append(r["exact"])
        if r["ks"] > r["index"] + 0.05:
            failures.append(f"{key}: KS {r['ks']:.4f} > index {r['index']:.4f} + 0.05")
        if abs(r["ks"] - r["exact"]) > BAND:
            failures.append(f"{key}: |KS {r['ks']:.4f} - D_exact {r['exact']:.4f}| "
                            f"> eps {BAND:.4f}")
    if not all(a <= b for a, b in zip(kss, kss[1:])):
        failures.append(f"KS not nondecreasing across the triple: {kss}")
    if not all(a < b for a, b in zip(exact, exact[1:])):
        failures.append(f"D_exact not increasing across the triple: {exact}")
    if elapsed >= 300.0:
        failures.append(f"regime-suite runtime {elapsed:.0f} s >= 300 s")
    _line("3 (a=b triple)", not failures,
          "KS " + ", ".join(f"{v:.4f}" for v in kss) +
          ", D_exact " + ", ".join(f"{v:.4f}" for v in exact) +
          f", eps {BAND:.4f} vs indices 0.2857, 0.5000, 0.8000 ({elapsed:.0f} s total)")
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 4: oracle agreement
# ---------------------------------------------------------------------------

def _mc_lindeberg_oracle(scheme, n, eps, draws, seed, chunk=10 ** 6):
    """Brute-force estimate of the Lindeberg sum from normal draws.

    Writes the sum as E[Z^2 * W(|Z|)] with W a step function of the per-index
    thresholds, so one stream of draws estimates every term at once.
    """
    stats = grid_walk(scheme, (n,))[0]
    s_n = math.sqrt(stats.s2_n)
    p, s2 = scheme.weights(n)
    thresholds = np.concatenate([[eps * s_n], eps * s_n / np.sqrt(s2)])
    weights = np.concatenate([[float(np.sum(1.0 - p))], p * s2]) / stats.s2_n
    order = np.argsort(thresholds)
    thr_sorted = thresholds[order]
    cumw = np.concatenate([[0.0], np.cumsum(weights[order])])

    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    count = 0
    while count < draws:
        z = rng.standard_normal(min(chunk, draws - count))
        g = z * z * cumw[np.searchsorted(thr_sorted, np.abs(z), side="right")]
        total += float(g.sum())
        total_sq += float((g * g).sum())
        count += z.size
    mean = total / count
    var = max(total_sq - count * mean * mean, 0.0) / (count - 1)
    return mean, math.sqrt(var / count)


def test_criterion_4_oracle_agreement():
    start = time.perf_counter()
    failures = []

    # closed form vs independent quadrature on t = 0.0 .. 5.0
    worst = 0.0
    for t in np.arange(0.0, 5.0 + 1e-9, 0.1):
        expected = 2.0 * quad(lambda x: x * x * norm.pdf(x), t, np.inf,
                              epsabs=1e-12, epsrel=1e-12)[0]
        worst = max(worst, abs(NORMAL.truncated_second_moment(float(t)) - expected))
    if worst > 1e-8:
        failures.append(f"truncated moment vs quadrature: worst abs err {worst:.2e}")

    # Lindeberg sum vs 1e7-draw Monte Carlo
    scheme = ContaminationScheme.power_law(0.1, 1.0, 4.0, 1.0)
    [exact] = lindeberg_row(scheme, NORMAL, 1000, [0.5])
    mc, se = _mc_lindeberg_oracle(scheme, 1000, 0.5, 10 ** 7, seed=20240601)
    if abs(exact - mc) > 3.0 * se:
        failures.append(f"lindeberg sum {exact:.6f} vs MC {mc:.6f} +- {se:.2e}")

    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.0f} s >= 120 s")
    _line("4", not failures,
          f"quad worst err {worst:.1e}; sum {exact:.5f} vs MC {mc:.5f} "
          f"(3se {3 * se:.1e}) ({elapsed:.0f} s)")
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 5: property suites
# ---------------------------------------------------------------------------

def _random_tabular(rng, max_len=120):
    m = int(rng.integers(1, max_len + 1))
    p = rng.random(m)
    s2 = np.where(rng.random(m) < 0.25, 1.0, 1.0 + 99.0 * rng.random(m))
    return ContaminationScheme.tabular(p, s2)


def test_criterion_5_property_suites():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(20250810)

    # s_n^2 >= n on 1000 randomized tabular schemes
    for i in range(1000):
        scheme = _random_tabular(rng)
        n = scheme.length
        if grid_walk(scheme, (n,))[0].s2_n < n:
            failures.append(f"s2_n < n for random scheme {i}")
            break

    # Lindeberg sums in [0, 1], nonincreasing in eps
    eps_grid = np.geomspace(1e-4, 20.0, 25)
    probe_schemes = [
        ContaminationScheme.uncontaminated(),
        ContaminationScheme.power_law(0.1, 1.0, 4.0, 1.0),
        _random_tabular(rng, max_len=300),
    ]
    for scheme in probe_schemes:
        n = min(200, scheme.length or 200)
        vals = lindeberg_row(scheme, NORMAL, n, eps_grid.tolist())
        if not all(0.0 <= v <= 1.0 for v in vals):
            failures.append("lindeberg sum escaped [0, 1]")
        if not all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])):
            failures.append("lindeberg sum not nonincreasing in eps")

    # index estimate <= upper bound + 0.02, and condition-trend ordering.
    # The ordering is asserted on the study's scheme families (power laws of
    # every regime plus structured tables with bounded contamination mass);
    # it is not a theorem for arbitrary weight tables.  C -> 0 does not imply
    # A -> 0 for a power law: A tends to 0 iff b - a < 1, whatever C does, so
    # power laws are held to that closed form and the rest to the implication.
    small_grid = tuple(100 * 2 ** j for j in range(6))
    m = small_grid[-1]
    spike = ContaminationScheme.tabular([1.0] + [0.0] * (m - 1),
                                        [200.0] + [1.0] * (m - 1))
    flat = ContaminationScheme.tabular([0.2] * m, [5.0] * m)
    diag_schemes = [
        (ContaminationScheme.uncontaminated(), None),
        (ContaminationScheme.power_law(0.5, 0.5, 25.0, 0.9), None),
        (ContaminationScheme.power_law(0.5, 2.0, 25.0, 1.5), None),
        (ContaminationScheme.power_law(0.1, 1.0, 4.0, 1.0), None),
        (ContaminationScheme.power_law(0.2, 1.0, 20.0, 1.0), None),
        (ContaminationScheme.power_law(0.3, 0.5, 9.0, 1.2), None),  # unclassified
        (ContaminationScheme.power_law(0.05, 1.0, 2.0, 2.5), None),  # b - a >= 1: A diverges
        (spike, small_grid),
        (flat, small_grid),
    ]
    for scheme, grid in diag_schemes:
        kwargs = {} if grid is None else {"n_grid": grid}
        est = lindeberg_index_estimate(scheme, NORMAL, **kwargs)
        bound = lindeberg_upper_bound(scheme, **kwargs)
        if est > bound + 0.02:
            failures.append(f"estimate {est:.4f} > bound {bound:.4f} + 0.02")
        trend_b = condition_b(scheme, **kwargs).trend
        trend_c = condition_c(scheme, **kwargs).trend
        trend_a = condition_a(scheme, **kwargs).trend
        if trend_b is Trend.CONVERGING_TO_ZERO and trend_c is not Trend.CONVERGING_TO_ZERO:
            failures.append("ConB zero without ConC zero")
        if scheme.kind is SchemeKind.POWER_LAW:
            if (trend_a is Trend.CONVERGING_TO_ZERO) != (scheme.b - scheme.a < 1.0):
                failures.append(f"ConA {trend_a.value} at b - a = {scheme.b - scheme.a:g}")
        elif trend_c is Trend.CONVERGING_TO_ZERO and trend_a is not Trend.CONVERGING_TO_ZERO:
            failures.append("ConC zero without ConA zero")

    # montecarlo invariants: moments, KS recomputation, seed determinism
    scheme = ContaminationScheme.power_law(0.1, 1.0, 4.0, 1.0)
    rep = replicate(2000, 500, scheme, NORMAL, 0.0, 13)
    p, s2 = scheme.weights(500)
    var_k = (1 - p) + p * s2
    fourth = 3.0 + float(np.sum(3.0 * ((1 - p) + p * s2 ** 2) - 3.0 * var_k ** 2)) \
        / float(np.sum(var_k)) ** 2
    if abs(float(rep.samples.mean())) > 3.0 / math.sqrt(2000):
        failures.append("replicate mean outside 3 standard errors")
    if abs(float(rep.samples.var(ddof=1)) - 1.0) > 3.0 * math.sqrt((fourth - 1.0) / 2000):
        failures.append("replicate variance outside 3 standard errors")
    if rep.ks_statistic != kolmogorov_distance_to_normal(rep.samples):
        failures.append("stored KS differs from recomputation")
    if not np.array_equal(rep.samples,
                          replicate(2000, 500, scheme, NORMAL, 0.0, 13).samples):
        failures.append("same seed produced different samples")

    # bitwise reproducibility: 1 worker vs 8 workers
    one = replicate(256, 100, scheme, NORMAL, 0.0, 99, workers=1)
    eight = replicate(256, 100, scheme, NORMAL, 0.0, 99, workers=8)
    if not np.array_equal(np.sort(one.samples), np.sort(eight.samples)):
        failures.append("worker count changed the sample multiset")
    if one.ks_statistic != eight.ks_statistic:
        failures.append("worker count changed the KS statistic")

    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.0f} s >= 120 s")
    _line("5", not failures, f"all property suites held ({elapsed:.0f} s)")
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 6: CLI end-to-end over the five shipped configs
# ---------------------------------------------------------------------------

def test_criterion_6_cli_end_to_end(tmp_path):
    start = time.perf_counter()
    failures = []
    configs = sorted(CONFIG_DIR.glob("fig*.cfg"))
    if len(configs) != 5:
        failures.append(f"expected 5 shipped configs, found {len(configs)}")

    for cfg in configs:
        out1 = tmp_path / f"{cfg.stem}-run1"
        out2 = tmp_path / f"{cfg.stem}-run2"
        for out in (out1, out2):
            code = main(["--config", str(cfg), "--out", str(out), "--workers", "2"])
            if code != EXIT_OK:
                failures.append(f"{cfg.name} -> exit code {code}")
                break
        else:
            csv_lines = (out1 / "qq.csv").read_text().splitlines()
            if len(csv_lines) != 200 or csv_lines[0] != "t,theoretical,empirical":
                failures.append(f"{cfg.name}: malformed qq.csv")
            report = json.loads((out1 / "report.json").read_text())
            if "ks_statistic" not in report or len(report["qq_points"]) != 199:
                failures.append(f"{cfg.name}: malformed report.json")
            if cfg.stem == "fig1":
                # normal regime: the QQ scatter hugs the line y = x
                dev = max(abs(q - e) for _, q, e in report["qq_points"])
                if dev > 0.15:
                    failures.append(f"fig1: QQ deviation {dev:.3f} > 0.15")
            try:
                ET.fromstring((out1 / "qq.svg").read_text())
            except ET.ParseError as exc:
                failures.append(f"{cfg.name}: invalid SVG ({exc})")
            if (out1 / "qq.csv").read_bytes() != (out2 / "qq.csv").read_bytes():
                failures.append(f"{cfg.name}: rerun CSV differs")
            if (out1 / "report.json").read_bytes() != (out2 / "report.json").read_bytes():
                failures.append(f"{cfg.name}: rerun JSON differs")

    elapsed = time.perf_counter() - start
    _line("6", not failures,
          f"5 configs x 2 runs, byte-identical CSV/JSON ({elapsed:.0f} s)")
    assert not failures, failures

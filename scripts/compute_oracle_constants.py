#!/usr/bin/env python3
"""Regenerate the frozen oracle constants used by the test suite.

Every pinned expected value in tests/ was produced by an independent route
(high-precision quadrature, characteristic-function inversion or closed-form
hand arithmetic), not by the library code under test.  Run this script to
re-derive them.
"""

import mpmath as mp
import numpy as np

mp.mp.dps = 30


def truncated_second_moment_normal(t):
    return 2 * mp.quad(lambda x: x * x * mp.npdf(x), [t, mp.inf])


def power_law_distance(p, a, s2, b, n):
    """(D_n, x*): sup_x |F_n(x) - Phi(x)| for T_n = S_n / s_n and its location.

    The scheme is p_k = p k^-a, sigma_k^2 = s2 k^b with a standard normal
    base.  F_n - Phi comes from the Gil-Pelaez inversion of
    phi_n(t) = prod_k [(1 - p_k) e^{-t^2/2s_n^2} + p_k e^{-sigma_k^2 t^2/2s_n^2}]
    by tanh-sinh quadrature; the peak is the root of the density difference
    near the best point of a coarse scan.
    """
    p, a, s2, b = (mp.mpf(v) for v in (p, a, s2, b))
    pk = [p * mp.power(k, -a) for k in range(1, n + 1)]
    sk = [s2 * mp.power(k, b) for k in range(1, n + 1)]
    s2n = mp.fsum((1 - q) + q * s for q, s in zip(pk, sk))
    cache = {}

    def h(t):  # phi_n(t) - exp(-t^2/2), shared by every x
        if t not in cache:
            u = t * t / (2 * s2n)
            e = mp.exp(-u)
            phi = mp.fprod((1 - q) * e + q * mp.exp(-s * u) for q, s in zip(pk, sk))
            cache[t] = phi - mp.exp(-t * t / 2)
        return cache[t]

    pts = [0, mp.mpf(1) / 16, mp.mpf(1) / 4, 1, 2, 4, 8, 16, mp.inf]
    diff = lambda x: mp.quad(lambda t: mp.sin(t * x) * h(t) / t, pts) / mp.pi
    dens = lambda x: mp.quad(lambda t: mp.cos(t * x) * h(t), pts) / mp.pi
    x0 = max((mp.mpf(j) / 10 for j in range(1, 31)), key=lambda x: abs(diff(x)))
    x_star = mp.findroot(dens, x0)
    return abs(diff(x_star)), x_star


# Lindeberg sums: every fifth eps of analytic.DEFAULT_EPS_GRID, power law
# (p, a, s2, b) = (0.1, 1, 4, 1) at n = 2000, and a small table whose s_n^2
# is an exact rational of its stored floats; the parameters enter as the
# float64 values the library holds
LINDEBERG_EPS = tuple(float(e) for e in np.geomspace(1e-3, 10.0, 40)[::5])
LINDEBERG_POWER_LAW, LINDEBERG_N = (0.1, 1.0, 4.0, 1.0), 2000
LINDEBERG_TABLE = ((0.05, 0.3, 0.7, 0.15, 0.9, 0.45, 0.2, 0.6, 0.1, 0.35, 0.8, 0.25),
                   (1.0, 3.5, 12.0, 1.25, 40.0, 7.0, 2.0, 25.0, 100.0, 5.5, 60.0, 9.0))


def tail_moment(kind, t):
    """E[X^2; |X| >= t] of the standardized base distribution, in closed form."""
    if kind == "normal":
        return 2 * t * mp.npdf(t) + mp.erfc(t / mp.sqrt(2))
    if kind == "laplace":  # scale 1/sqrt(2)
        return mp.exp(-mp.sqrt(2) * t) * (t * t + mp.sqrt(2) * t + 1)
    return max(mp.mpf(0), 1 - t ** 3 / (3 * mp.sqrt(3)))  # uniform on [-sqrt(3), sqrt(3)]


def lindeberg_sums(p_k, s2_k, kind, eps_list):
    """(1/s_n^2) [sum (1 - p_k) m(eps s_n) + sum p_k s2_k m(eps s_n / sigma_k)] per eps,
    with m the base's truncated second moment and s_n^2 = sum (1 - p_k) + p_k s2_k."""
    base_weight = mp.fsum(1 - p for p in p_k)
    s2n = base_weight + mp.fsum(p * s for p, s in zip(p_k, s2_k))
    s_n, sigma = mp.sqrt(s2n), [mp.sqrt(s) for s in s2_k]
    return [(base_weight * tail_moment(kind, eps * s_n)
             + mp.fsum(p * s * tail_moment(kind, eps * s_n / g)
                       for p, s, g in zip(p_k, s2_k, sigma))) / s2n
            for eps in map(mp.mpf, eps_list)]


def lindeberg_oracle() -> dict:
    """{(scheme, base): sums at LINDEBERG_EPS} for the power law and the table."""
    p, a, s2, b = map(mp.mpf, LINDEBERG_POWER_LAW)
    ks = range(1, LINDEBERG_N + 1)
    schemes = {"powerlaw": ([p * mp.power(k, -a) for k in ks], [s2 * mp.power(k, b) for k in ks]),
               "tabular": tuple([mp.mpf(x) for x in col] for col in LINDEBERG_TABLE)}
    return {(name, kind): lindeberg_sums(p_k, s2_k, kind, LINDEBERG_EPS)
            for name, (p_k, s2_k) in schemes.items() for kind in ("normal", "laplace", "uniform")}


def main() -> None:
    print("# standard normal truncated second moments E[X^2; |X| >= t]")
    for t in ("0", "0.5", "1", "2", "3.5"):
        print(f"T_normal({t}) = {mp.nstr(truncated_second_moment_normal(mp.mpf(t)), 17)}")

    print("\n# standard normal CDF / quantile")
    print(f"Phi(1.96)   = {mp.nstr(mp.ncdf(mp.mpf('1.96')), 17)}")
    print(f"Phi^-1(0.975) = {mp.nstr(mp.sqrt(2) * mp.erfinv(2 * mp.mpf('0.975') - 1), 17)}")

    print("\n# cumulative variance, power law p=0.1 a=1 s2=4 b=1 at n=2")
    # (1 - 0.1) + 0.1*4  +  (1 - 0.05) + 0.05*8  =  1.3 + 1.35
    print("s_2^2 =", mp.nstr(mp.mpf("0.9") + mp.mpf("0.4") + mp.mpf("0.95") + mp.mpf("0.4"), 17))

    print("\n# Lindeberg sums at eps =", ", ".join(map(repr, LINDEBERG_EPS)))
    print("LINDEBERG_ORACLE = {")
    for key, sums in lindeberg_oracle().items():
        print(f"    {key!r}: (")
        for value in sums:
            print(f'        "{mp.nstr(value, 20, min_fixed=-mp.inf)}",')
        print("    ),")
    print("}")

    print("\n# exact Kolmogorov distance of T_n to N(0,1), power law p=0.5 a=2 s2=25 b=1.5")
    with mp.workdps(20):  # 1000-factor products at 20 digits: about 35 s
        d, x_star = power_law_distance("0.5", "2", "25", "1.5", 1000)
    print(f"D_exact(1000) = {mp.nstr(d, 17)}  at x = {mp.nstr(x_star, 8)}")


if __name__ == "__main__":
    main()

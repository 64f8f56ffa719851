"""Tail quantiles of the normal, chi-square and binomial distributions, from
the standard library and numpy.

``ndtri`` is ``statistics.NormalDist().inv_cdf``.  ``chdtri`` inverts the
regularised upper incomplete gamma function Q(a, x) (Numerical Recipes §6.2:
the series for P = 1 - Q below x = a + 1, the continued fraction for Q above
it) and ``binom_upper`` inverts the binomial lower tail; both solve by Newton's
method.  The prefactor x^a e^-x / Gamma(a) and the binomial mass are taken in
Loader's saddle-point form ("Fast and accurate computation of binomial
probabilities", 2000), which keeps their relative error near one ulp where
a log-gamma difference would lose nine digits at n = 2^20.
"""

from __future__ import annotations

import math
from functools import lru_cache
from statistics import NormalDist

import numpy as np

ndtri = NormalDist().inv_cdf

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_TOL = 1e-14     # relative Newton step at which a root counts as found
_WINDOW = 10.0   # binomial terms summed below k, in standard deviations


def _stirlerr(n: float) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n), for n > 0."""
    if n <= 15.0:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _LN_SQRT_2PI
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, mu: float) -> float:
    """x log(x / mu) + mu - x, for x, mu > 0, without its cancellation near
    x = mu."""
    if abs(x - mu) >= 0.1 * (x + mu):
        return x * math.log(x / mu) + mu - x
    v = (x - mu) / (x + mu)  # |v| < 0.1: each term is 100 times smaller
    s, ej, j = (x - mu) * v, 2.0 * x * v, 1
    while True:
        ej *= v * v
        j += 2
        s_next = s + ej / j
        if s_next == s:
            return s
        s = s_next


def _newton(step, x: float, lo: float, hi: float) -> float:
    """The root in (lo, hi) of a monotone function whose Newton step at x is
    ``step(x)``, positive when the root lies above x (infinite where the
    slope underflows).  Each step narrows the bracket to x; a step that
    leaves it is replaced by bisection, or by doubling x while ``hi`` is
    infinite."""
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    for _ in range(200):
        dx = step(x)
        if abs(dx) <= _TOL * x:
            return x + dx
        lo, hi = (x, hi) if dx > 0 else (lo, x)
        x = x + dx if lo < x + dx < hi else 2.0 * x if hi == math.inf else 0.5 * (lo + hi)
    raise ArithmeticError("Newton iteration did not converge")


def _log_gamma_tail(a: float, x: float, upper: bool) -> tuple[float, float]:
    """log Q(a, x) (``upper``) or log P(a, x), and the tail over the
    prefactor x^a e^-x / Gamma(a), which is x times the gamma density."""
    log_pref = 0.5 * math.log(a / (2.0 * math.pi)) - _stirlerr(a) - _bd0(a, x)
    if x < a + 1.0:  # series: P = prefactor * sum_n x^n / (a (a+1) ... (a+n))
        term = total = 1.0 / a
        ap = a
        while term > total * 1e-17:
            ap += 1.0
            term *= x / ap
            total += term
        if not upper:
            return log_pref + math.log(total), total
        tail = -math.expm1(log_pref + math.log(total))
    else:  # continued fraction for Q by the modified Lentz method
        tiny = 1e-300
        b = x + 1.0 - a
        c, d = 1.0 / tiny, 1.0 / b
        h, i = d, 0
        while True:
            i += 1
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = b + an / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
            if abs(d * c - 1.0) <= 1e-15:
                break
        if upper:
            return log_pref + math.log(h), h
        tail = -math.expm1(log_pref + math.log(h))
    pref = math.exp(log_pref)
    return math.log(tail), tail / pref if pref else math.inf


@lru_cache(maxsize=32)
def chdtri(df: int, q: float) -> float:
    """The x at which a chi-square variable with ``df`` degrees of freedom
    exceeds x with probability q (as ``scipy.special.chdtri``).  Newton's
    method on the log of the smaller tail, from the Wilson-Hilferty start."""
    a, upper = 0.5 * df, q <= 0.5
    log_target = math.log(q) if upper else math.log1p(-q)
    h = 2.0 / (9.0 * df)
    base = 1.0 - h - ndtri(q) * math.sqrt(h)
    # below Wilson-Hilferty's range, P(a, x) ~ x^a / Gamma(a + 1)
    x0 = (0.5 * df * base ** 3 if base > 0
          else math.exp((log_target + math.lgamma(a + 1.0)) / a))

    def step(x):
        log_tail, ratio = _log_gamma_tail(a, x, upper)
        return (log_tail - log_target) * x * ratio * (1.0 if upper else -1.0)

    return 2.0 * _newton(step, x0, 0.0, math.inf)


def _binom_pmf(k: int, n: int, x: float) -> float:
    """P(Bin(n, x) = k), for 0 < k < n."""
    log_pmf = (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
               - _bd0(k, n * x) - _bd0(n - k, n * (1.0 - x)))
    return math.exp(log_pmf - _LN_SQRT_2PI) * math.sqrt(n / (k * (n - k)))


def binom_upper(k: int, n: int, confidence: float) -> float:
    """The one-sided Clopper-Pearson upper bound on a binomial rate after k
    hits in n trials: the x at which P(Bin(n, x) <= k) = 1 - confidence, as
    ``scipy.special.betaincinv(k + 1, n - k, confidence)``.

    The tail sums only the terms within ``_WINDOW`` standard deviations
    below k, in O(sqrt(n)) time and memory: Newton's iterates stay above
    k / n, where the terms fall away from k."""
    if k == n:
        return 1.0
    if k == 0:  # (1 - x)^n = 1 - confidence
        return -math.expm1(math.log1p(-confidence) / n)
    tail = 1.0 - confidence

    def step(x):
        pmf = _binom_pmf(k, n, x)
        below = min(k, int(_WINDOW * math.sqrt(n * x * (1.0 - x))) + 10)
        j = np.arange(k, k - below, -1, dtype=np.float64)
        # P(Bin <= k) / pmf(k) = 1 + sum of the products of pmf(j - 1) / pmf(j)
        ratio = np.cumprod(j / (n - j + 1.0) * ((1.0 - x) / x))
        excess = pmf * (1.0 + float(ratio.sum())) - tail
        slope = (n - k) * pmf / (1.0 - x)   # -d/dx P(Bin(n, x) <= k)
        return excess / slope if slope else math.copysign(math.inf, excess)

    # start from Wilson's score bound at k + 1/2
    z, h = ndtri(confidence), k + 0.5
    start = (h + z * z / 2 + z * math.sqrt(h * (n - h) / n + z * z / 4)) / (n + z * z)
    return _newton(step, start, k / n, 1.0)

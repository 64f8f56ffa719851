"""The package computes its quantiles in ``keystream_lab._tails`` from the
standard library and numpy, and no command loads scipy.  Here scipy is the
oracle: each quantile must agree with it to 1e-12 relative, and exactly where
both use the same closed form.

``scipy.special.betaincinv`` is itself off by up to 1.1e-10 at a few hits in
2^20 or more trials (a 40-digit binomial sum shows it), and so is
``betainc`` there, so for k <= 50 hits ``p_upper`` is checked against that
sum instead, which is the stricter oracle.
"""

import ast
import decimal
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy import special, stats

import keystream_lab
from keystream_lab import _tails, diff, freq


def test_cli_import_leaves_scipy_stats_unloaded():
    # a fresh process: this one may have imported scipy.stats already
    src = os.path.dirname(os.path.dirname(keystream_lab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, keystream_lab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("alpha", [1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.5])
def test_z_threshold_equals_norm_ppf(alpha):
    z = freq.SignificanceConfig(alpha=alpha).z_threshold
    assert math.isclose(z, stats.norm.ppf(1.0 - alpha / 2.0), rel_tol=1e-12)


@pytest.mark.parametrize("m_bits, df", [(8, 255), (16, 65_535), (32, 65_535)])
def test_chi_square_critical_equals_chi2_ppf(monkeypatch, m_bits, df):
    # record the critical value chi_square compares against
    seen = []

    def chdtri(k, alpha):
        seen.append((k, alpha, _tails.chdtri(k, alpha)))
        return seen[-1][2]

    monkeypatch.setattr(freq, "chdtri", chdtri)
    n = 1 << 20
    table = freq.FrequencyTable(np.array([0], dtype=np.uint32),
                                np.array([n], dtype=np.int64), n, m_bits)
    cfg = freq.SignificanceConfig()
    statistic, passed = freq.chi_square(table, cfg)
    [(k, alpha, critical)] = seen
    assert (k, alpha) == (df, cfg.chi2_alpha)
    assert math.isclose(critical, stats.chi2.ppf(1.0 - cfg.chi2_alpha, df), rel_tol=1e-12)
    assert passed == (statistic < critical)


# q above 0.5 solves on the lower tail, and at df = 1 starts from the
# small-x form, as Wilson-Hilferty's cube root goes negative there
@pytest.mark.parametrize("q", [1e-6, 1e-3, 0.05, 0.5, 0.999])
@pytest.mark.parametrize("df", [1, 2, 10, 255, 65_535, 1 << 20])
def test_chdtri_matches_scipy(df, q):
    assert math.isclose(_tails.chdtri(df, q), special.chdtri(df, q), rel_tol=1e-12)


@pytest.mark.parametrize("a, x", [(0.5, 2.0), (1.0, 5.0), (10.0, 20.0), (127.5, 200.0)])
def test_lower_gamma_tail_by_continued_fraction(a, x):
    # x >= a + 1 takes the continued fraction, which gives Q; P is 1 - Q
    log_p, ratio = _tails._log_gamma_tail(a, x, upper=False)
    assert math.isclose(math.exp(log_p), special.gammainc(a, x), rel_tol=1e-12)
    density = math.exp((a - 1.0) * math.log(x) - x - math.lgamma(a))
    assert math.isclose(ratio, special.gammainc(a, x) / (x * density), rel_tol=1e-10)


def test_newton_starts_inside_its_bracket():
    # from outside (lo, hi) the first step is taken at the bracket's midpoint
    seen = []

    def step(x):
        seen.append(x)
        return 2.0 - x

    assert _tails._newton(step, 10.0, 0.0, 4.0) == 2.0
    assert seen[0] == 2.0


@pytest.mark.parametrize("hi", [4.0, math.inf])
def test_newton_raises_when_steps_never_converge(hi):
    with pytest.raises(ArithmeticError, match="did not converge"):
        _tails._newton(lambda x: math.nan, 1.0, 0.0, hi)


def test_chdtri_is_memoised():
    # freq asks for df = 65,535 twice: for m = 16 and for m = 32
    _tails.chdtri.cache_clear()
    n = 1 << 20
    for m_bits in (16, 32):
        freq.chi_square(freq.FrequencyTable(np.array([0], dtype=np.uint32),
                                            np.array([n], dtype=np.int64), n, m_bits))
    info = _tails.chdtri.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _root_error(k, n, x):
    """The relative error of x as the root of P(Bin(n, x) <= k) = 0.05, from
    the k + 1 terms of the binomial sum in 40-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        x = decimal.Decimal(x)
        y = 1 - x
        cdf = sum(math.comb(n, j) * x ** j * y ** (n - j) for j in range(k + 1))
        slope = (n - k) * math.comb(n, k) * x ** k * y ** (n - k - 1)
        return float((cdf - decimal.Decimal("0.05")) / (x * slope))


_HITS = {"isqrt": math.isqrt, "n/4": lambda n: n // 4, "n/2": lambda n: n // 2,
         "n-2": lambda n: n - 2, "n-1": lambda n: n - 1}


@pytest.mark.parametrize("trials", [1 << 10, 1 << 16, 100_000, 1 << 20, 1 << 24])
@pytest.mark.parametrize("hits", [0, 1, 7, 50, *_HITS])
def test_p_upper_equals_beta_ppf(trials, hits):
    k = _HITS[hits](trials) if hits in _HITS else hits
    p_upper = diff._make_stats(1, trials, k, 0).p_upper
    scipy_value = stats.beta.ppf(0.95, k + 1, trials - k)
    if k == 0:  # both take -expm1(log1p(-0.95) / n)
        assert p_upper == scipy_value
    elif k <= 50:
        assert abs(_root_error(k, trials, p_upper)) <= 1e-12
    else:
        assert math.isclose(p_upper, scipy_value, rel_tol=1e-12)


def test_p_upper_is_one_when_every_trial_hits():
    assert diff._make_stats(1, 1024, 1000, 24).p_upper == 1.0


def _fresh(code, *argv):
    """Run ``code`` in a fresh interpreter that imports the package from this
    checkout, and return its stdout's last line."""
    src = os.path.dirname(os.path.dirname(keystream_lab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


_COMMANDS = """
import json, sys
from keystream_lab import cli
d = sys.argv[1]
ks = d + "/ks.txt"
codes = [cli.main(argv) for argv in (
    ["gen", "--blocks", "8", "--seed", "1", "--out", ks],
    ["scan", "--dataset", ks, "--engine", "brute", "--alphabet", "byte", "--pattern", "00ff"],
    ["bench", "--size-mb", "1", "--seed", "1"],
    ["avalanche", "--trials", "64", "--seed", "1"],
    ["freq", "--dataset", ks, "--m", "8", "16", "32", "--top", "1", "--out-dir", d + "/freq"],
    ["diff", "--trials", "1024", "--rounds", "1", "--seed", "1", "--out-dir", d + "/diff"],
    ["sweep", "--trials", "1024", "--rounds", "1", "--seed", "1"],
    ["report", "--blocks", "8", "--trials", "1024", "--seed", "1", "--out-dir", d + "/report"],
)]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_no_command_loads_scipy(tmp_path):
    codes, loaded = json.loads(_fresh(_COMMANDS, str(tmp_path)))
    assert codes == [0] * 8
    assert loaded == []


_HIDDEN_SCIPY = """
import sys

class Hide:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, Hide())
from keystream_lab import cli
d = sys.argv[1]
print([cli.main(argv) for argv in (
    ["gen", "--blocks", "8", "--seed", "1", "--out", d + "/ks.txt"],
    ["freq", "--dataset", d + "/ks.txt", "--m", "8", "--top", "1", "--out-dir", d],
    ["diff", "--trials", "1024", "--rounds", "1", "--seed", "1", "--out-dir", d],
)])
"""


def test_commands_run_without_scipy(tmp_path):
    assert _fresh(_HIDDEN_SCIPY, str(tmp_path)) == "[0, 0, 0]"


def test_src_imports_no_scipy():
    src = pathlib.Path(keystream_lab.__file__).parent
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), path

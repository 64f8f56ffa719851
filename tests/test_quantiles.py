"""The package takes its quantiles from ``scipy.special`` and never imports
``scipy.stats``, whose import costs more than the rest of the package.  The
tests may import ``scipy.stats``: each quantile must equal its value exactly.
"""

import os
import subprocess
import sys
import types

import numpy as np
import pytest
from scipy import special, stats

import keystream_lab
from keystream_lab import diff, freq


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


@pytest.mark.parametrize("alpha", [1e-6, 0.05])
def test_z_threshold_equals_norm_ppf(alpha):
    z = freq.SignificanceConfig(alpha=alpha).z_threshold
    assert z == stats.norm.ppf(1.0 - alpha / 2.0)


@pytest.mark.parametrize("m_bits, df", [(8, 255), (16, 65_535), (32, 65_535)])
def test_chi_square_critical_equals_chi2_ppf(monkeypatch, m_bits, df):
    # record the critical value chi_square compares against
    seen = []

    def chdtri(k, alpha):
        seen.append((k, alpha, special.chdtri(k, alpha)))
        return seen[-1][2]

    monkeypatch.setattr(freq, "special", types.SimpleNamespace(chdtri=chdtri))
    n = 1 << 20
    table = freq.FrequencyTable(np.array([0], dtype=np.uint32),
                                np.array([n], dtype=np.int64), n, m_bits)
    cfg = freq.SignificanceConfig()
    statistic, passed = freq.chi_square(table, cfg)
    [(k, alpha, critical)] = seen
    assert (k, alpha) == (df, cfg.chi2_alpha)
    assert critical == stats.chi2.ppf(1.0 - cfg.chi2_alpha, df)
    assert passed == (statistic < critical)


@pytest.mark.parametrize("trials", [1 << 16, 100_000, 1 << 20])
@pytest.mark.parametrize("hits", [0, 1, 7, 50])
def test_p_upper_equals_beta_ppf(trials, hits):
    st = diff._make_stats(1, trials, hits, 0)
    assert st.p_upper == stats.beta.ppf(0.95, hits + 1, trials - hits)


def test_p_upper_is_one_when_every_trial_hits():
    assert diff._make_stats(1, 1024, 1000, 24).p_upper == 1.0

"""The package takes its quantiles from ``scipy.special`` and never imports
``scipy.stats``, whose import costs more than the rest of the package; it
loads ``scipy.special`` itself only when a command computes a tail.  The
tests may import ``scipy.stats``: each quantile must equal its value exactly.
"""

import json
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
tail = [a.format(d=d) for a in json.loads(sys.argv[2])]
ks = d + "/ks.txt"
loaded = []
for argv in (["gen", "--blocks", "8", "--seed", "1", "--out", ks],
             ["scan", "--dataset", ks, "--engine", "brute", "--alphabet", "byte",
              "--pattern", "00ff"],
             ["bench", "--size-mb", "1", "--seed", "1"],
             ["avalanche", "--trials", "64", "--seed", "1"],
             tail):
    assert cli.main(argv) == 0, argv
    loaded.append("scipy.special._ufuncs" in sys.modules)
print(json.dumps(loaded))
"""


@pytest.mark.parametrize("tail", [
    ["freq", "--dataset", "{d}/ks.txt", "--m", "8", "--top", "1", "--out-dir", "{d}/out"],
    ["diff", "--trials", "1024", "--rounds", "1", "--seed", "1", "--out-dir", "{d}/out"],
], ids=["freq", "diff"])
def test_scipy_special_loads_only_for_a_tail(tmp_path, tail):
    # gen, scan, bench and avalanche compute no tail; freq and diff do
    loaded = _fresh(_COMMANDS, str(tmp_path), json.dumps(tail))
    assert json.loads(loaded) == [False] * 4 + [True]


def test_lazy_special_is_the_module_scipy_stats_loads():
    # the package first, then scipy.stats, which imports scipy.special itself
    code = """
import sys, types
import keystream_lab.cli
from keystream_lab import diff, freq
assert "scipy.special._ufuncs" not in sys.modules
from scipy import stats
assert freq.special is diff.special is sys.modules["scipy.special"]
assert type(freq.special) is types.ModuleType
assert freq.SignificanceConfig().z_threshold == stats.norm.ppf(1.0 - 1e-6 / 2.0)
assert diff._make_stats(1, 1 << 16, 7, 0).p_upper == stats.beta.ppf(0.95, 8, (1 << 16) - 7)
print("ok")
"""
    assert _fresh(code) == "ok"


def test_lazy_reuses_a_loaded_scipy_special():
    code = """
import sys, types
import scipy.special
from keystream_lab import _lazy, freq
assert _lazy.special is freq.special is scipy.special
assert type(_lazy.special) is types.ModuleType
print("ok")
"""
    assert _fresh(code) == "ok"


_HIDDEN_SCIPY = """
import importlib.machinery, sys

class Hide:
    def find_spec(self, name, path=None, target=None):
        if sys.argv[1] == "absent" and name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        if sys.argv[1] == "empty" and name == "scipy":
            # an empty package in scipy's place: nothing under it is found
            return importlib.machinery.ModuleSpec(name, None, is_package=True)
        return None

sys.meta_path.insert(0, Hide())
try:
    import keystream_lab
except ImportError as exc:
    print(type(exc).__name__, exc.name)
else:
    print("imported")
"""


@pytest.mark.parametrize("mode, name", [("absent", "scipy"), ("empty", "scipy.special")])
def test_missing_scipy_fails_at_import(mode, name):
    assert _fresh(_HIDDEN_SCIPY, mode) == f"ModuleNotFoundError {name}"

"""``scipy.special``, bound at import and executed on its first attribute read.

Only the commands that compute a tail (``freq``, ``diff``, ``sweep`` and
``report``) read ``special``; the others no longer pay for its import, which
costs more than the rest of the package.  The binding follows the
``importlib.util.LazyLoader`` recipe in the ``importlib`` docs, and reuses
``scipy.special`` when it is already loaded.  Once executed it is a plain
module, so reads after the first cost nothing extra.

Not thread-safe: Python 3.11's ``LazyLoader`` (checked on 3.11.7) takes no
lock on the first attribute read; it turns the module into a plain one and
then executes it, so a second thread reading meanwhile sees it half-filled.
The first ``special.*`` read must therefore happen on the main thread, before
any worker thread starts.  No code path starts threads today.
"""

import importlib.util
import sys


def _lazy(name):
    if sys.modules.get(name) is not None:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:  # fail at import, as ``from scipy import special`` does
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


special = _lazy("scipy.special")

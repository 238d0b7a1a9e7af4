"""SciPy's special-function ufuncs without ``scipy.special``'s package
``__init__``.

The package calls a handful of ufuncs (``_nbinom_sf``, ``_nbinom_cdf`` and
``ndtr`` in ``adversary``, ``gammaln`` in ``fock``), all of which live in
the compiled extension ``scipy.special._ufuncs``.  The package
``__init__`` around it also loads SciPy's array-API layer
(``scipy._lib._array_api``, ``array_api_compat``, ``numpy.testing``,
``numpy.f2py``, ``numpy.ma``), which is over half of a CLI process's
start-up.  So the extension is imported through a bare stand-in package
module named ``scipy.special`` whose ``__path__`` is SciPy's ``special``
directory, and the stand-in is removed again afterwards.  The extension
stays in ``sys.modules``, so a later ``import scipy.special`` reuses the
same module object and the same ufuncs.

If ``scipy.special`` is already imported, or the stand-in route raises
``ImportError`` (a SciPy whose layout differs), the extension is imported
the plain way, through the package.
"""

from __future__ import annotations

import importlib
import os
import sys
import types

import scipy

_NAME = "scipy.special._ufuncs"


def _load_ufuncs() -> types.ModuleType:
    """``scipy.special._ufuncs``, loaded without running
    ``scipy.special/__init__.py`` unless that package is already imported
    or the stand-in route fails."""
    if "scipy.special" not in sys.modules:
        stub = types.ModuleType("scipy.special")
        stub.__path__ = [os.path.join(os.path.dirname(scipy.__file__), "special")]
        sys.modules["scipy.special"] = stub
        try:
            return importlib.import_module(_NAME)
        except ImportError:
            pass
        finally:
            if sys.modules.get("scipy.special") is stub:
                del sys.modules["scipy.special"]
            # vars(), not getattr: scipy's module __getattr__ would import
            # the real package
            if vars(scipy).get("special") is stub:
                del scipy.special
    return importlib.import_module(_NAME)


ufuncs = _load_ufuncs()

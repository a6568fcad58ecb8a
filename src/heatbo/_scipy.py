"""heatbo's five scipy routines, from the two extension files that hold them: importing
``scipy.linalg`` or ``scipy.special`` runs ``scipy._lib._array_api``, over half of
``import heatbo``.  A later public import returns these same functions."""

import importlib.machinery
import importlib.util
import os
import sys


def _compiled(name: str, public: str):
    """scipy's extension module ``name``, loaded from its file and registered under its name,
    without its package's ``__init__``; module ``public`` where no file matches (old scipy)."""
    if name in sys.modules:
        return sys.modules[name]
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    directory = os.path.join(scipy_dir, *name.split(".")[1:-1])
    loaders = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(directory, loaders).find_spec(name)
    if spec is None:
        return importlib.import_module(public)
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _compiled("scipy.linalg._flapack", "scipy.linalg.lapack")
dpotrf, dpotri, dpotrs, dtrtrs = _flapack.dpotrf, _flapack.dpotri, _flapack.dpotrs, _flapack.dtrtrs
ndtr = _compiled("scipy.special._special_ufuncs", "scipy.special").ndtr

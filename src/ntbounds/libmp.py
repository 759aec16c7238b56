"""mpmath's raw ``libmp`` layer, loaded without the rest of mpmath.

``from mpmath.libmp import ...`` first runs ``mpmath/__init__``, which builds
every mpmath context, function and matrix module: about 3 MB of resident
memory that no ntbounds module reads.  ``libmp`` imports only its own
modules, so it is loaded here from its directory as a package of its own,
under a private name, and ``mpmath`` itself is never imported: a fresh
``import ntbounds.cli`` holds about 18.3 MB instead of 21.3 MB and takes
about 20 ms less.  The raw values (tuples of Python ints and rounding-mode
strings) are the same ones ``mpmath.libmp`` builds.

mpmath must be installed as a plain directory; from a zip or an egg the
loader raises ImportError.  A process that imports ``mpmath`` as well holds
a second copy of libmp next to this one.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

__all__ = [
    "fone",
    "from_int",
    "fzero",
    "mpf_add",
    "mpf_ge",
    "mpf_pi",
    "mpf_pos",
    "mpf_shift",
    "mpf_sign",
    "mpi_abs",
    "mpi_add",
    "mpi_div",
    "mpi_log",
    "mpi_mul",
    "mpi_pow_int",
    "mpi_sub",
    "round_ceiling",
    "round_floor",
    "round_nearest",
]

_PACKAGE = "_ntbounds_mpmath_libmp"


def _load():
    """The libmp package, executed from mpmath's directory without mpmath."""
    mpmath = importlib.util.find_spec("mpmath")  # locates it, runs nothing
    if mpmath is None or not mpmath.submodule_search_locations:
        raise ImportError("ntbounds needs mpmath (its libmp layer)")
    libmp_dir = Path(mpmath.submodule_search_locations[0]) / "libmp"
    init = libmp_dir / "__init__.py"
    if not init.is_file():
        raise ImportError(f"mpmath's libmp layer is missing: no {init}")
    spec = importlib.util.spec_from_file_location(
        _PACKAGE, init, submodule_search_locations=[str(libmp_dir)])
    module = importlib.util.module_from_spec(spec)
    # registered first, so the package's relative imports find their parent
    sys.modules[_PACKAGE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_PACKAGE]
        raise
    return module


_libmp = _load()
globals().update((name, getattr(_libmp, name)) for name in __all__)

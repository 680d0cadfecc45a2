"""Exact-arithmetic invariants of singularities in characteristic p.

Frobenius roots of submodules of R^l over F_p, test ideals tau(f^alpha) and
their jumping exponents, list test modules with their jump sets, and
b-functions of square matrices over R[t].  All arithmetic is exact.
The test-ideal, rational, list-module and b-function code is imported on
first use of one of its names, so `import fsing` loads only the algebra
every subcommand runs.
"""

import importlib

from .errors import (
    FsingError,
    InternalConsistencyError,
    PolyParseError,
    ProblemFormatError,
    RankMismatchError,
    ResourceLimitExceeded,
    StabilizationError,
)
from .frobenius import bracket_power, frobenius_root
from .modgb import (
    Submodule,
    VectorR,
    contains,
    contains_all,
    prune_generators,
)
from .polyring import (
    CharConfig,
    Poly,
    PowerCache,
    Ring,
    frobenius_decompose,
    frobenius_power,
    grevlex_key,
    poly_parse,
)

# Each name read from a submodule on access, with nothing kept here, so a
# rebinding in the submodule is what the package returns.
_LAZY = {
    "BFunctionResult": "bfun",
    "b_function": "bfun",
    "graph_generator": "bfun",
    "ChainEstimate": "listmod",
    "HFamily": "listmod",
    "JumpReport": "listmod",
    "MatrixList": "listmod",
    "SeReport": "listmod",
    "TMatrix": "listmod",
    "assemble_A": "listmod",
    "estimate_jumping_numbers": "listmod",
    "h_expand": "listmod",
    "list_test_module": "listmod",
    "load_problem": "listmod",
    "load_problem_file": "listmod",
    "s_set": "listmod",
    "s_set_simple": "listmod",
    "simple_list_I": "listmod",
    "simple_list_tau": "listmod",
    "ChainFit": "rationals",
    "GridRational": "rationals",
    "detect_chain_limit": "rationals",
    "snap_interval": "rationals",
    "f_jumping_exponents": "testideal",
    "tau_f": "testideal",
    "tau_f_stable": "testideal",
}
_LAZY_MODULES = frozenset(_LAZY.values())

__all__ = [
    "FsingError",
    "InternalConsistencyError",
    "PolyParseError",
    "ProblemFormatError",
    "RankMismatchError",
    "ResourceLimitExceeded",
    "StabilizationError",
    "bracket_power",
    "frobenius_root",
    "Submodule",
    "VectorR",
    "contains",
    "contains_all",
    "prune_generators",
    "CharConfig",
    "Poly",
    "PowerCache",
    "Ring",
    "frobenius_decompose",
    "frobenius_power",
    "grevlex_key",
    "poly_parse",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_MODULES})

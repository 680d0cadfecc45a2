"""Exact-arithmetic invariants of singularities in characteristic p.

Frobenius roots of submodules of R^l over F_p, test ideals tau(f^alpha) and
their jumping exponents, list test modules with their jump sets, and
b-functions of square matrices over R[t].  All arithmetic is exact.
"""

from .bfun import BFunctionResult, b_function, graph_generator
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
from .listmod import (
    ChainEstimate,
    HFamily,
    JumpReport,
    MatrixList,
    SeReport,
    TMatrix,
    assemble_A,
    estimate_jumping_numbers,
    h_expand,
    list_test_module,
    load_problem,
    load_problem_file,
    s_set,
    s_set_simple,
    simple_list_I,
    simple_list_tau,
)
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
from .rationals import ChainFit, GridRational, detect_chain_limit, snap_interval
from .testideal import f_jumping_exponents, tau_f, tau_f_stable

__version__ = "0.1.0"

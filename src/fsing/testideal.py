"""Test ideals tau(f^alpha), F-jumping exponents, and simple list test ideals.

lambda only ever enters through ceil(lambda * q^{e+1}), so every scan walks
an integer grid; there is no real arithmetic anywhere.  Ideals are rank-1
submodules so that the Groebner machinery is shared with the module case.

Every root here is taken one level at a time and f^a is never formed.  Two
rules (Blickle-Mustata-Smith, Michigan Math. J. 57, 2008) make that exact:
(I^[1/q])^[1/q^{e-1}] = I^[1/q^e], and (g^q h)^[1/q] = g h^[1/q].  Writing
a = a_0 + a_1 q + ... + a_{e-1} q^{e-1} + N q^e in base q, they give
(f^a K)^[1/q^e] = f^N K_e with K_0 = K and K_{i+1} = (f^{a_i} K_i)^[1/q], so
degrees stay near deg(f) q rather than deg(f) a.  K_i depends on K and the
low i digits of a only, which lets a scan over many a share its inner roots.
The simple-list products r_{i_0} r_{i_1}^q ... r_{i_e}^{q^e} are rooted the
same way, with the factor r_{i_k} in place of f^{a_k}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import StabilizationError
from .frobenius import DEFAULT_STABLE_CAP, frobenius_root
from .modgb import Submodule, VectorR, contains_all, module_sum
from .polyring import CharConfig, Poly, PowerCache
from .rationals import GridRational, frac_ceil, snap_interval


@dataclass(frozen=True)
class SeReport:
    """The jump set S_e of a (simple) list, on the grid m / q^{e+1}."""

    e: int
    jumps: Tuple[GridRational, ...]
    chain: Optional[Tuple[Tuple[Fraction, Submodule], ...]] = None

    def values(self) -> Tuple[Fraction, ...]:
        return tuple(j.value for j in self.jumps)


def _ideal(gen: Poly) -> Submodule:
    return Submodule(1, (VectorR((gen,)),), gen.ring)


def _scaled(K: Submodule, g: Poly) -> Submodule:
    """The submodule g K."""
    return Submodule(K.rank, tuple(v.poly_mul(g) for v in K.generators), K.ring)


Prefixes = Dict[Tuple[int, int], Submodule]


def _digit_root(
    n: int,
    e: int,
    K: Submodule,
    factor: Callable[[int], Poly],
    cfg: CharConfig,
    prefixes: Optional[Prefixes] = None,
) -> Submodule:
    """(g K)^[1/q^e] for g = factor(n_0) factor(n_1)^q ... factor(n_{e-1})^{q^{e-1}},
    times factor(N)^{q^e} when N > 0.

    n_0 .. n_{e-1} are the low base-q digits of n and N = n // q^e.  With
    factor(i) = f^i this is (f^n K)^[1/q^e].  The root is taken as e single
    levels K <- (factor(n_i) K)^[1/q], lowest digit first, and multiplied by
    factor(N) at the end.  A caller rooting many n over the same
    K passes one `prefixes` dict: the level-i value, i < e, is stored there
    under (n mod q^i, i) and reused.
    """
    q = cfg.q
    low, scale = 0, 1
    for level in range(1, e + 1):
        n, digit = divmod(n, q)
        low += digit * scale
        scale *= q
        shared = level < e and prefixes is not None
        if shared and (low, level) in prefixes:
            K = prefixes[(low, level)]
            continue
        K = frobenius_root(_scaled(K, factor(digit)), 1, cfg)
        if shared:
            prefixes[(low, level)] = K
    return _scaled(K, factor(n)) if n else K


def tau_f(
    f: Poly,
    alpha: Fraction,
    e: int,
    cfg: CharConfig,
    powers: Optional[PowerCache] = None,
) -> Submodule:
    """The e-th member (f^{ceil(alpha q^e)})^[1/q^e] of the chain for tau(f^alpha)."""
    if f.is_zero():
        raise ValueError("f must be nonzero")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if e < 0:
        raise ValueError("e must be non-negative")
    powers = powers or PowerCache(f)
    k = frac_ceil(alpha * cfg.q**e)
    return _digit_root(k, e, Submodule.full(1, f.ring), powers.power, cfg)


def _pe_decompose(alpha: Fraction, cfg: CharConfig) -> Tuple[int, int, int]:
    """Write alpha = a / (q^c (q^d - 1)) with a, c, d integers, d minimal.

    d = 0 encodes a pure q-power denominator (alpha = a / q^c).
    """
    q = cfg.q
    den = alpha.denominator
    c = 0
    while den % cfg.p == 0:
        den //= cfg.p
        c += 1
    c = -(-c // cfg.gamma)  # round the p-adic valuation up to a q-power
    if den == 1:
        a = alpha * q**c
        return a.numerator, c, 0
    d = 1
    acc = q % den
    while acc != 1:
        acc = (acc * q) % den
        d += 1
    a = alpha * q**c * (q**d - 1)
    return a.numerator, c, d


def _ascend(
    a: int, d: int, seed: Submodule, cfg: CharConfig, powers: PowerCache, cap: int,
) -> Submodule:
    """Smallest K containing seed with (f^a K)^[1/q^d] inside K.

    The iteration K <- K + (f^a K)^[1/q^d] is ascending by construction and
    monotone in K, so the first repeated value is the true fixed point.
    """
    cur = seed
    for _ in range(cap):
        step = _digit_root(a, d, cur, powers.power, cfg)
        if contains_all(cur, step.generators):
            return cur
        cur = module_sum(cur, step)
    raise StabilizationError(
        f"test-ideal ascent did not stabilize within {cap} steps"
    )


def tau_f_stable(
    f: Poly,
    alpha: Fraction,
    cfg: CharConfig,
    e_cap: int = DEFAULT_STABLE_CAP,
    powers: Optional[PowerCache] = None,
) -> Submodule:
    """The test ideal tau(f^alpha) itself, the union of the tau_f chain.

    Computed exactly rather than by watching the chain: with
    alpha = a / (q^c (q^d - 1)) and a = m (q^d - 1) + a' (a' < q^d - 1), Skoda
    gives tau(f^{a/(q^d-1)}) = f^m tau(f^{a'/(q^d-1)}); the latter is the
    smallest fixed point of K -> K + (f^{a'} K)^[1/q^d] over the seed
    (f^ceil), and dividing the exponent by q^c is a Frobenius root, taken
    digit by digit over the multiplier f^m.  Consecutive equal chain members
    are not a stopping proof: the ascending chain can pause and grow again
    (f = x0^3 over F_2 at alpha = 8/25 pauses at e = 1, 2).
    """
    if f.is_zero():
        raise ValueError("f must be nonzero")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    powers = powers or PowerCache(f)
    full = Submodule.full(1, f.ring)
    if alpha == 0:
        return full
    a, c, d = _pe_decompose(alpha, cfg)
    if d == 0:
        return _digit_root(a, c, full, powers.power, cfg)
    m, a = divmod(a, cfg.q**d - 1)
    seed = _ideal(powers.power(frac_ceil(Fraction(a, cfg.q**d - 1))))
    fixed = _ascend(a, d, seed, cfg, powers, e_cap)
    return _digit_root(m, c, fixed, powers.power, cfg)


def f_jumping_exponents(f: Poly, cfg: CharConfig, e_max: int) -> List[Fraction]:
    """F-jumping exponents of f in (0, 1], snapped to exact rationals.

    On the grid k/q^{e_max} the test ideal is exactly (f^k)^[1/q^{e_max}]
    (the defining chain is constant from e = e_max on when the denominator
    is a q-power).  Wherever it strictly drops against the previous grid
    point, the true exponent lies in the half-open grid interval and is
    snapped to the smallest-denominator candidate of the form
    c/(q^a (q^b - 1)).  The conventional exponent 0 is excluded.
    """
    if f.is_zero() or f.is_constant():
        raise ValueError("f must be nonzero and not a unit")
    if e_max < 1:
        raise ValueError("e_max must be positive")
    q = cfg.q
    grid = q**e_max
    window = max(1, -(-e_max // 2))
    powers = PowerCache(f)
    full = Submodule.full(1, f.ring)
    prefixes: Prefixes = {}

    out: List[Fraction] = []
    prev = full
    for k in range(1, grid + 1):
        cur = _digit_root(k, e_max, full, powers.power, cfg, prefixes)
        if cur != prev:
            lo = Fraction(k - 1, grid)
            hi = Fraction(k, grid)
            snapped = snap_interval(lo, hi, q, window, window)
            out.append(snapped if snapped is not None else hi)
        prev = cur
    return out


def _check_list(r: Sequence[Poly], cfg: CharConfig) -> None:
    if len(r) != cfg.q:
        raise ValueError(f"list has length {len(r)}, expected q = {cfg.q}")
    ring = r[0].ring
    if ring.extra is not None:
        raise ValueError("list entries must live in the pure ring R")
    for p in r:
        if p.ring != ring:
            raise ValueError("list entries live in different rings")


def _grid_index(lam: GridRational, e: int, cfg: CharConfig) -> int:
    m = frac_ceil(lam.value * cfg.q ** (e + 1))
    if not (0 < m <= cfg.q ** (e + 1)):
        raise ValueError("lambda must lie in (0, 1]")
    return m


def simple_list_I(
    r: Sequence[Poly], lam: GridRational, e: int, cfg: CharConfig
) -> Submodule:
    """(r_{i_0} r_{i_1}^q ... r_{i_e}^{q^e})^[1/q^{e+1}] at the grid point lam."""
    _check_list(r, cfg)
    m = _grid_index(lam, e, cfg)
    return _digit_root(m - 1, e + 1, Submodule.full(1, r[0].ring), r.__getitem__, cfg)


def simple_tau_scan(
    r: Sequence[Poly], e: int, cfg: CharConfig
) -> List[Submodule]:
    """Cumulative simple list test ideals at m = 1 .. q^{e+1} (index m-1)."""
    _check_list(r, cfg)
    ring = r[0].ring
    full = Submodule.full(1, ring)
    prefixes: Prefixes = {}
    out: List[Submodule] = []
    cum = Submodule.zero(1, ring)
    for m in range(1, cfg.q ** (e + 1) + 1):
        piece = _digit_root(m - 1, e + 1, full, r.__getitem__, cfg, prefixes)
        if not contains_all(cum, piece.generators):
            cum = module_sum(cum, piece)
        out.append(cum)
    return out


def simple_list_tau(
    r: Sequence[Poly], lam: GridRational, e: int, cfg: CharConfig
) -> Submodule:
    """Sum of simple_list_I over all grid points up to lam."""
    _check_list(r, cfg)
    m = _grid_index(lam, e, cfg)
    return simple_tau_scan(r, e, cfg)[m - 1]


def s_set_simple(
    r: Sequence[Poly], e: int, cfg: CharConfig, keep_chain: bool = False
) -> SeReport:
    """Grid points in (0,1) where the cumulative ideal strictly grows next.

    By monotonicity in lambda this is exactly the adjacent-point test:
    lambda = m/q^{e+1} is in S_e iff tau at m+1 differs from tau at m.
    """
    scan = simple_tau_scan(r, e, cfg)
    jumps = []
    for m in range(1, cfg.q ** (e + 1)):
        if scan[m] != scan[m - 1]:
            jumps.append(GridRational(m, e, cfg))
    chain = None
    if keep_chain:
        chain = tuple(
            (Fraction(m, cfg.q ** (e + 1)), scan[m - 1])
            for m in range(1, cfg.q ** (e + 1) + 1)
        )
    return SeReport(e, tuple(jumps), chain)

"""Test ideals tau(f^alpha), F-jumping exponents, and simple list test ideals.

lambda only ever enters through ceil(lambda * q^{e+1}), so every scan walks
an integer grid; there is no real arithmetic anywhere.  Ideals are rank-1
submodules so that the Groebner machinery is shared with the module case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import StabilizationError
from .frobenius import DEFAULT_STABLE_CAP, frobenius_root
from .modgb import Submodule, VectorR, contains_all, module_sum
from .polyring import CharConfig, Poly, PowerCache, frobenius_power
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
    ideal = _ideal(powers.power(k))
    if e == 0:
        return ideal
    return frobenius_root(ideal, e, cfg)


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
    f: Poly, a: int, d: int, seed: Submodule, cfg: CharConfig,
    powers: PowerCache, cap: int,
) -> Submodule:
    """Smallest K containing seed with (f^a K)^[1/q^d] inside K.

    The iteration K <- K + (f^a K)^[1/q^d] is ascending by construction and
    monotone in K, so the first repeated value is the true fixed point.
    """
    fa = powers.power(a)
    cur = seed
    for _ in range(cap):
        scaled = Submodule(
            1, tuple(v.poly_mul(fa) for v in cur.generators), cur.ring
        )
        step = frobenius_root(scaled, d, cfg)
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
    alpha = a / (q^c (q^d - 1)), the ideal tau(f^{a/(q^d-1)}) is the smallest
    fixed point of K -> K + (f^a K)^[1/q^d] over the seed (f^ceil), and
    dividing the exponent by q^c is a Frobenius root.  Consecutive equal
    chain members are not a stopping proof: the ascending chain can pause
    and grow again (f = x0^3 over F_2 at alpha = 8/25 pauses at e = 1, 2).
    """
    if f.is_zero():
        raise ValueError("f must be nonzero")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    powers = powers or PowerCache(f)
    ring = f.ring
    if alpha == 0:
        return Submodule.full(1, ring)
    shift = 0
    if alpha > 1:
        shift = frac_ceil(alpha) - 1
        alpha = alpha - shift
    a, c, d = _pe_decompose(alpha, cfg)
    if d == 0:
        ideal = _ideal(powers.power(a))
        out = frobenius_root(ideal, c, cfg) if c else ideal
    else:
        t_ceil = frac_ceil(Fraction(a, cfg.q**d - 1))
        seed = _ideal(powers.power(t_ceil))
        fixed = _ascend(f, a, d, seed, cfg, powers, e_cap)
        out = frobenius_root(fixed, c, cfg) if c else fixed
    if shift:
        fs = powers.power(shift)
        out = Submodule(1, tuple(v.poly_mul(fs) for v in out.generators), ring)
    return out


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

    out: List[Fraction] = []
    prev = Submodule.full(1, f.ring)
    for k in range(1, grid + 1):
        cur = frobenius_root(_ideal(powers.power(k)), e_max, cfg)
        if cur != prev:
            lo = Fraction(k - 1, grid)
            hi = Fraction(k, grid)
            snapped = snap_interval(lo, hi, q, window, window)
            out.append(snapped if snapped is not None else hi)
        prev = cur
    return out


def _digit_product(r: Sequence[Poly], m: int, e: int, cfg: CharConfig) -> Poly:
    """r_{i_0} r_{i_1}^q ... r_{i_e}^{q^e} for the base-q digits i_k of m - 1."""
    q = cfg.q
    n = m - 1
    ring = r[0].ring
    prod = Poly.const(ring, 1)
    for k in range(e + 1):
        i_k = n % q
        n //= q
        factor = r[i_k]
        if factor.is_zero():
            return Poly.zero(ring)
        prod = prod * frobenius_power(factor, k, cfg)
    return prod


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
    prod = _digit_product(r, m, e, cfg)
    if prod.is_zero():
        return Submodule.zero(1, r[0].ring)
    return frobenius_root(_ideal(prod), e + 1, cfg)


def simple_tau_scan(
    r: Sequence[Poly], e: int, cfg: CharConfig
) -> List[Submodule]:
    """Cumulative simple list test ideals at m = 1 .. q^{e+1} (index m-1)."""
    _check_list(r, cfg)
    ring = r[0].ring
    out: List[Submodule] = []
    cum = Submodule.zero(1, ring)
    for m in range(1, cfg.q ** (e + 1) + 1):
        prod = _digit_product(r, m, e, cfg)
        if not prod.is_zero():
            piece = frobenius_root(_ideal(prod), e + 1, cfg)
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

"""Test ideals tau(f^alpha) of one polynomial f, and its F-jumping exponents.

lambda only ever enters through ceil(lambda * q^e), so every search walks an
integer grid; there is no real arithmetic anywhere.  Ideals are rank-1
submodules so that the Groebner machinery is shared with the module case.

Every root here is taken one level at a time and f^a is never formed.  Two
rules (Blickle-Mustata-Smith, Michigan Math. J. 57, 2008) make that exact:
(I^[1/q])^[1/q^{e-1}] = I^[1/q^e], and (g^q h)^[1/q] = g h^[1/q].  Writing
a = a_0 + a_1 q + ... + a_{e-1} q^{e-1} + N q^e in base q, they give
(f^a K)^[1/q^e] = f^N K_e with K_0 = K and K_{i+1} = (f^{a_i} K_i)^[1/q], so
degrees stay near deg(f) q rather than deg(f) a.  The step
K_i -> K_{i+1} depends only on the span of K_i and the digit a_i, so each
call keeps its steps in one `frobenius._RootGraph` over the multipliers
f^d, d < q, each built at its digit's first step by a `frobenius._Table`,
and takes each (ideal, digit) step once, however many digit
prefixes reach the ideal; the list walks of `listmod` run on the same graph,
with a matrix slice in place of f^d.

F-jumping exponents are found by bisecting the grid k/q^e, not by rooting
all of its points.  k -> (f^k)^[1/q^e] never grows (f^{k+1} lies in (f^k),
and Frobenius roots keep inclusions), so equal roots at the two ends of a
grid interval make the root constant on the whole interval: comparing the
endpoints of each interval is an exact test for a drop inside it.

A stable test ideal tau(f^{a/(q^d-1)}) is the least fixed point of
K -> K + Phi(K), Phi(K) = (f^a K)^[1/q^d], over the seed (f^c),
c = ceil(a/(q^d-1)); a, c and d are found in integers.  The period d, the
order of q modulo the part of alpha's denominator prime to p, is searched
only up to `MAX_PERIOD`, since each ascent step walks d levels; the levels
of any one root, e and c alike, are capped at `frobenius.MAX_LEVEL`.  The seed
lies in Phi(seed), as f^{c q^d} lies in (f^{a+c}), and Phi keeps
inclusions, so the steps Phi^i(seed) ascend: they are the sums, no running
sum is kept, and the first repeated step is the fixed point.

Each level K_i is kept as the module generated by its own reduced Groebner
basis (`Submodule._spanned`): one basis per distinct step, reused by every
later comparison and memo lookup, and no Buchberger run for a root of one
generator, which made monic is its own basis.  A step multiplies and roots
in one pass over the flat vectors of `modgb` (`frobenius._root_generators`),
so neither the product nor a `Poly` is built until a caller reads a result.
The generators of a test ideal are therefore a reduced basis, not a
degree-bounded list; only the public `frobenius_root`, which prunes
instead, promises the bound deg <= floor(maxdeg / q^e).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .errors import ResourceLimitExceeded, StabilizationError
from .frobenius import _check_level, _root_generators, _RootGraph, _scalar, _Table
# frobenius_root stays importable from here: perfbench/tracer.py rebinds it in
# every module that holds it.  The roots below use `_root_generators`.
from .frobenius import frobenius_root  # noqa: F401
from .modgb import Submodule, VectorR
from .polyring import CharConfig, Poly, PowerCache, check_char
from .rationals import frac_ceil, snap_interval

DEFAULT_STABLE_CAP = 16
# Cap on the period d of a stable alpha = a / (q^c (q^d - 1)); each ascent
# step walks d levels; the tests need d <= 20 and the benchmarks d <= 6.
MAX_PERIOD = 1000


def _ideal(gen: Poly) -> Submodule:
    return Submodule(1, (VectorR((gen,)),), gen.ring)


def _power_graph(powers: PowerCache, cfg: CharConfig) -> _RootGraph:
    """The one-level roots K -> (f^d K)^[1/q], d < q, of f = powers.f, with
    the multiplier f^d built at the first step of digit d."""
    return _RootGraph(_Table(lambda d: _scalar(powers.power(d), 1)), cfg)


def _digit_root(n: int, e: int, K: Submodule, graph: _RootGraph, powers: PowerCache) -> Submodule:
    """(f^n K)^[1/q^e] for f = powers.f, on the graph of `_power_graph`.

    The root is taken as e single levels K <- (f^{n_i} K)^[1/q] along the low
    base-q digits n_i of n, lowest first, and multiplied by f^N at the end,
    N = n // q^e, as the e = 0 case of the same kernel.  A caller rooting
    many n passes one graph for the whole call, so each (ideal, digit) level
    is rooted once whatever the seeds.
    """
    K, n = graph.walk(K, n, e)
    if not n:
        return K
    flats = _root_generators(K, 0, graph.cfg, _scalar(powers.power(n), K.rank))
    return Submodule._from_flats(K.rank, K.ring, flats)


def _checked_powers(f: Poly, alpha: Fraction, cfg: CharConfig) -> PowerCache:
    """The inputs of `tau_f` and `tau_f_stable` checked, and a power cache of f."""
    check_char(f.ring, cfg)
    if f.is_zero():
        raise ValueError("f must be nonzero")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    return PowerCache(f)


def tau_f(f: Poly, alpha: Fraction, e: int, cfg: CharConfig) -> Submodule:
    """The e-th member (f^{ceil(alpha q^e)})^[1/q^e] of the chain for tau(f^alpha)."""
    powers = _checked_powers(f, alpha, cfg)
    if e < 0:
        raise ValueError("e must be non-negative")
    _check_level(e, "the chain level e")
    k = frac_ceil(alpha * cfg.q**e)
    return _digit_root(k, e, Submodule.full(1, f.ring), _power_graph(powers, cfg), powers)


def _pe_decompose(alpha: Fraction, cfg: CharConfig) -> Tuple[int, int, int]:
    """Write alpha = a / (q^c (q^d - 1)) with a, c, d integers, d minimal.

    d = 0 encodes a pure q-power denominator (alpha = a / q^c).  A period d
    past `MAX_PERIOD` or a c past `frobenius.MAX_LEVEL` raises
    `ResourceLimitExceeded` before q^d or q^c is formed.
    """
    q = cfg.q
    num, den = alpha.numerator, alpha.denominator
    rest = den
    c = 0
    while rest % cfg.p == 0:
        rest //= cfg.p
        c += 1
    c = -(-c // cfg.gamma)  # round the p-adic valuation up to a q-power
    _check_level(c, "the q-power exponent c of alpha's denominator")
    if rest == 1:
        return num * q**c // den, c, 0
    d = 1
    acc = q % rest
    while acc != 1:
        if d == MAX_PERIOD:
            raise ResourceLimitExceeded(
                f"the period of alpha = {alpha} under q = {q} exceeds the cap of {MAX_PERIOD}"
            )
        acc = (acc * q) % rest
        d += 1
    return num * q**c * (q**d - 1) // den, c, d


def _ascend(
    a: int,
    d: int,
    seed: Submodule,
    graph: _RootGraph,
    powers: PowerCache,
    cap: int,
) -> Submodule:
    """Smallest K containing seed with (f^a K)^[1/q^d] inside K.

    The seed must lie in Phi(seed), Phi(K) = (f^a K)^[1/q^d], as the seed
    (f^c), c = ceil(a/(q^d-1)), of `tau_f_stable` does.  Phi keeps
    inclusions, so the chain Phi^i(seed) ascends, and each member is the sum
    K_i = Phi^0(seed) + ... + Phi^i(seed) of the plain iteration
    K_{i+1} = K_i + Phi(K_i).  Phi^{i+1}(seed) = Phi^i(seed) is therefore a
    stopping proof: the chain is constant from there and the step is the
    least fixed point.  From the second step on both sides of the test are
    objects of the graph, so equal steps are one object.  The stop test and
    the number of roots before `StabilizationError` are those of the plain
    iteration; the fixed point comes back as its reduced basis.
    """
    cur = seed
    for _ in range(cap):
        step = _digit_root(a, d, cur, graph, powers)
        if step == cur:
            return step
        cur = step
    raise StabilizationError(
        f"test-ideal ascent did not stabilize within {cap} steps"
    )


def tau_f_stable(f: Poly, alpha: Fraction, cfg: CharConfig) -> Submodule:
    """The test ideal tau(f^alpha) itself, the union of the tau_f chain.

    Computed exactly rather than by watching the chain: with
    alpha = a / (q^c (q^d - 1)) and a = m (q^d - 1) + a' (a' < q^d - 1), Skoda
    gives tau(f^{a/(q^d-1)}) = f^m tau(f^{a'/(q^d-1)}); the latter is the
    smallest fixed point of K -> K + (f^{a'} K)^[1/q^d] over the seed
    (f^ceil), and dividing the exponent by q^c is a Frobenius root, taken
    digit by digit over the multiplier f^m.  The seed lies in its own image,
    so the steps Phi^i(seed), Phi(K) = (f^{a'} K)^[1/q^d], ascend, and
    Phi^{i+1}(seed) = Phi^i(seed) is a stopping proof (`_ascend`).  Equal
    members of the tau_f chain over e are not: it can pause and grow again
    (f = x0^3 over F_2 at alpha = 8/25 pauses at e = 1, 2).  For alpha < 1
    the generators are the reduced basis.
    """
    powers = _checked_powers(f, alpha, cfg)
    if alpha == 0:
        return Submodule.full(1, f.ring)
    graph = _power_graph(powers, cfg)
    a, c, d = _pe_decompose(alpha, cfg)
    if d == 0:
        return _digit_root(a, c, Submodule.full(1, f.ring), graph, powers)
    den = cfg.q**d - 1
    m, a = divmod(a, den)
    seed = _ideal(powers.power(-(-a // den)))
    fixed = _ascend(a, d, seed, graph, powers, DEFAULT_STABLE_CAP)
    return _digit_root(m, c, fixed, graph, powers)


def f_jumping_exponents(f: Poly, cfg: CharConfig, e_max: int) -> List[Fraction]:
    """F-jumping exponents of f in (0, 1], snapped to exact rationals.

    On the grid k/q^{e_max} the test ideal is exactly (f^k)^[1/q^{e_max}]
    (the defining chain is constant from e = e_max on when the denominator
    is a q-power).  Wherever it strictly drops against the previous grid
    point, the true exponent lies in the half-open grid interval and is
    snapped to the smallest-denominator candidate of the form
    c/(q^a (q^b - 1)).  The conventional exponent 0 is excluded.

    The drops are found by bisection, not by rooting every grid point.
    k -> (f^k)^[1/q^{e_max}] never grows, since f^{k+1} lies in (f^k) and
    Frobenius roots keep inclusions; so when the roots at the two ends of a
    grid interval are equal the root is constant on the whole interval, and
    only intervals with unequal ends are split at their midpoint.  A width-1
    interval with unequal ends drops at its right end.  With J drops this
    roots about J e_max log2(q) grid points instead of q^{e_max}.  Every
    root, the grid's ends included, is the graph's one object for its span,
    so identity decides equality and no reduced bases are compared.
    """
    check_char(f.ring, cfg)
    if f.is_zero() or f.is_constant():
        raise ValueError("f must be nonzero and not a unit")
    if e_max < 1:
        raise ValueError("e_max must be positive")
    _check_level(e_max, "e_max")
    q = cfg.q
    grid = q**e_max
    window = max(1, -(-e_max // 2))
    powers = PowerCache(f)
    graph = _power_graph(powers, cfg)
    full = graph.kept(Submodule.full(1, f.ring))
    roots = _Table(lambda k: graph.kept(_digit_root(k, e_max, full, graph, powers)))
    roots[0] = full

    out: List[Fraction] = []
    # intervals still to test, leftmost on top, so drops come out in order
    stack = [(0, grid)]
    while stack:
        lo, hi = stack.pop()
        left, right = roots[lo], roots[hi]
        if left is right:
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            stack += [(mid, hi), (lo, mid)]
            continue
        snapped = snap_interval(Fraction(lo, grid), Fraction(hi, grid), q, window)
        out.append(snapped if snapped is not None else Fraction(hi, grid))
    return out

import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fsing import frobenius, modgb, testideal
from fsing.errors import ResourceLimitExceeded, StabilizationError
from fsing.frobenius import MAX_LEVEL, frobenius_root
from fsing.modgb import Submodule, VectorR, contains_all
from fsing.polyring import CharConfig, Poly, PowerCache, Ring, frobenius_power, poly_parse
from fsing.rationals import GridRational, frac_ceil, snap_interval
from fsing.listmod import (
    s_set_simple,
    simple_list_I,
    simple_list_tau,
    simple_tau_scan,
)
from fsing.testideal import (
    DEFAULT_STABLE_CAP,
    MAX_PERIOD,
    _digit_root,
    _power_graph,
    f_jumping_exponents,
    tau_f,
    tau_f_stable,
)
from test_frobenius import spy_root_steps
from test_listmod import jump_report


def ideal(ring, *texts):
    gens = [VectorR((poly_parse(t, ring),)) for t in texts]
    return Submodule(1, gens, ring)


@pytest.fixture
def f2():
    return CharConfig(2), Ring(2, 1)


@pytest.fixture
def f3():
    return CharConfig(3), Ring(3, 1)


class TestTauF:
    def test_unit_for_small_alpha(self, f2):
        cfg, ring = f2
        f = poly_parse("x0", ring)
        for e in range(1, 4):
            assert tau_f(f, Fraction(1, 2), e, cfg) == Submodule.full(1, ring)

    def test_alpha_one(self, f2):
        cfg, ring = f2
        f = poly_parse("x0", ring)
        for e in range(1, 4):
            assert tau_f(f, Fraction(1), e, cfg) == ideal(ring, "x0")

    def test_cusp_exponent(self, f2):
        cfg, ring = f2
        f = poly_parse("x0^3", ring)
        # ceil(8/3) = 3, and (x0^9)^[1/8] = (x0)
        assert tau_f(f, Fraction(1, 3), 3, cfg) == ideal(ring, "x0")

    def test_rejects_zero(self, f2):
        cfg, ring = f2
        with pytest.raises(ValueError):
            tau_f(Poly.zero(ring), Fraction(1, 2), 1, cfg)


class TestTauFStable:
    def test_alpha_zero(self, f2):
        cfg, ring = f2
        assert tau_f_stable(poly_parse("x0", ring), Fraction(0), cfg) == (
            Submodule.full(1, ring)
        )

    def test_cusp(self, f2):
        cfg, ring = f2
        f = poly_parse("x0^3", ring)
        assert tau_f_stable(f, Fraction(1, 3), cfg) == ideal(ring, "x0")

    def test_pausing_chain_below_threshold(self, f2):
        # the e-chain at alpha = 8/25 repeats (x0) at e = 1, 2 before
        # growing to the unit ideal; the monomial oracle floor(3a) gives R
        cfg, ring = f2
        f = poly_parse("x0^3", ring)
        assert tau_f_stable(f, Fraction(8, 25), cfg) == Submodule.full(1, ring)

    def test_q_power_denominator(self, f2):
        cfg, ring = f2
        f = poly_parse("x0^3", ring)
        assert tau_f_stable(f, Fraction(9, 32), cfg) == Submodule.full(1, ring)
        assert tau_f_stable(f, Fraction(11, 32), cfg) == ideal(ring, "x0")

    @pytest.mark.parametrize(
        "num,den,exp",
        [(1, 3, 1), (1, 2, 1), (2, 3, 2), (1, 1, 3), (5, 6, 2), (7, 12, 1)],
    )
    def test_monomial_oracle(self, f2, num, den, exp):
        # tau(x0^(3a)) = (x0^floor(3a)) in one variable
        cfg, ring = f2
        f = poly_parse("x0^3", ring)
        want = ideal(ring, f"x0^{exp}") if exp else Submodule.full(1, ring)
        assert tau_f_stable(f, Fraction(num, den), cfg) == want

    def test_translation_above_one(self, f3):
        cfg, ring = f3
        f = poly_parse("x0", ring)
        # tau(f^(3/2)) = f * tau(f^(1/2)) = (x0)
        assert tau_f_stable(f, Fraction(3, 2), cfg) == ideal(ring, "x0")

    def test_two_variables(self, f2):
        cfg, ring2 = f2
        ring = Ring(2, 2)
        f = poly_parse("x0*x1", ring)
        assert tau_f_stable(f, Fraction(1, 2), cfg) == Submodule.full(1, ring)
        assert tau_f_stable(f, Fraction(1), cfg) == ideal(ring, "x0*x1")


class TestFJumping:
    def test_linear(self, f2):
        cfg, ring = f2
        assert f_jumping_exponents(poly_parse("x0", ring), cfg, 4) == [Fraction(1)]

    def test_cusp_like(self, f2):
        cfg, ring = f2
        got = f_jumping_exponents(poly_parse("x0^3", ring), cfg, 5)
        assert got == [Fraction(1, 3), Fraction(2, 3), Fraction(1)]

    def test_square_char3(self, f3):
        cfg, ring = f3
        got = f_jumping_exponents(poly_parse("x0^2", ring), cfg, 5)
        assert got == [Fraction(1, 2), Fraction(1)]

    def test_rejects_units_and_zero(self, f2):
        cfg, ring = f2
        with pytest.raises(ValueError):
            f_jumping_exponents(Poly.const(ring, 1), cfg, 3)
        with pytest.raises(ValueError):
            f_jumping_exponents(Poly.zero(ring), cfg, 3)


def power_list(f, cfg):
    """(f^(q-1), ..., f, 1) as in the graph construction."""
    return [f ** (cfg.q - 1 - k) for k in range(cfg.q)]


class TestSimpleList:
    def test_I_first_digit(self, f3):
        cfg, ring = f3
        r = power_list(poly_parse("x0^2", ring), cfg)
        lam = GridRational(1, 0, cfg)  # 1/3, digit i_0 = 0, product x0^4
        assert simple_list_I(r, lam, 0, cfg) == ideal(ring, "x0")

    def test_I_second_digit(self, f3):
        cfg, ring = f3
        r = power_list(poly_parse("x0^2", ring), cfg)
        lam = GridRational(2, 0, cfg)  # 2/3, digit i_0 = 1, product x0^2
        assert simple_list_I(r, lam, 0, cfg) == Submodule.full(1, ring)

    def test_zero_factor_kills_product(self, f3):
        cfg, ring = f3
        r = [poly_parse("x0", ring), Poly.zero(ring), Poly.const(ring, 1)]
        lam = GridRational(2, 0, cfg)
        assert simple_list_I(r, lam, 0, cfg).is_zero()

    def test_wrong_length_rejected(self, f3):
        cfg, ring = f3
        with pytest.raises(ValueError):
            simple_list_I([Poly.zero(ring)], GridRational(1, 0, cfg), 0, cfg)

    def test_tau_cumulative_e0(self, f3):
        cfg, ring = f3
        r = power_list(poly_parse("x0^2", ring), cfg)
        assert simple_list_tau(r, GridRational(1, 0, cfg), 0, cfg) == ideal(ring, "x0")
        full = Submodule.full(1, ring)
        assert simple_list_tau(r, GridRational(2, 0, cfg), 0, cfg) == full
        assert simple_list_tau(r, GridRational(3, 0, cfg), 0, cfg) == full

    def test_monomial_closed_form(self, f3):
        # for r_k = f^(q-1-k), I at m/q^(e+1) is (f^(q^(e+1)-m))^[1/q^(e+1)]
        cfg, ring = f3
        f = poly_parse("x0^2", ring)
        r = power_list(f, cfg)
        for e in range(2):
            grid = cfg.q ** (e + 1)
            for m in range(1, grid + 1):
                got = simple_list_I(r, GridRational(m, e, cfg), e, cfg)
                want = frobenius_root(
                    Submodule(1, (VectorR((f ** (grid - m),)),), ring), e + 1, cfg
                )
                assert got == want

    def test_monotone_in_lambda(self, f2):
        cfg, ring2 = f2
        ring = Ring(2, 2)
        rng = random.Random(3)
        for _ in range(5):
            r = [random_poly(rng, ring, 3) for _ in range(cfg.q)]
            scan = simple_tau_scan(r, 1, cfg)
            for a, b in zip(scan, scan[1:]):
                assert a <= b

    def test_chain_in_e(self, f3):
        cfg, ring = f3
        rng = random.Random(5)
        for _ in range(5):
            r = [random_poly(rng, ring, 4) for _ in range(cfg.q)]
            for m in range(1, cfg.q + 1):
                high = simple_list_tau(
                    r, GridRational(m * cfg.q, 1, cfg), 1, cfg
                )
                low = simple_list_tau(r, GridRational(m, 0, cfg), 0, cfg)
                assert high <= low


def random_poly(rng, ring, max_deg):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = [0] * ring.nvars
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(ring.nvars)] += 1
        terms[tuple(mono)] = rng.randint(1, ring.p - 1)
    return Poly(ring, terms)


class TestSSetSimple:
    def test_linear_gives_empty(self, f2):
        cfg, ring = f2
        r = power_list(poly_parse("x0", ring), cfg)
        for e in range(4):
            assert s_set_simple(r, e, cfg).jumps == ()

    def test_square_char3(self, f3):
        cfg, ring = f3
        r = power_list(poly_parse("x0^2", ring), cfg)
        assert [g.value for g in s_set_simple(r, 0, cfg).jumps] == [Fraction(1, 3)]
        assert [g.value for g in s_set_simple(r, 1, cfg).jumps] == [Fraction(4, 9)]

    def test_zero_list(self, f3):
        cfg, ring = f3
        r = [Poly.zero(ring)] * cfg.q
        assert s_set_simple(r, 1, cfg).jumps == ()

    def test_shift_property(self, f3):
        cfg, ring = f3
        r = power_list(poly_parse("x0^2", ring), cfg)
        reports = {e: s_set_simple(r, e, cfg) for e in range(4)}
        for e in range(1, 4):
            for g in reports[e].jumps:
                j = g.m
                if j % cfg.q**e == 0:
                    continue
                frac_m = j % cfg.q**e
                prev = {h.m for h in reports[e - 1].jumps}
                assert frac_m in prev


# -- oracles: f^a built with Poly.__pow__, then one deep Frobenius root -------


def ref_root_of_power(f, a, e, cfg):
    """(f^a)^[1/q^e], the power formed outright."""
    ideal = Submodule(1, (VectorR((f**a,)),), f.ring)
    return frobenius_root(ideal, e, cfg) if e else ideal


def ref_tau_f(f, alpha, e, cfg):
    return ref_root_of_power(f, frac_ceil(alpha * cfg.q**e), e, cfg)


def ref_tau_f_stable(f, alpha, cfg):
    """tau(f^alpha) by shifting alpha into (0, 1], ascending with f^a itself
    and taking the q^c-th root in one step."""
    ring = f.ring
    if alpha == 0:
        return Submodule.full(1, ring)
    shift = max(frac_ceil(alpha) - 1, 0)
    alpha -= shift
    q = cfg.q
    den, v = alpha.denominator, 0
    while den % cfg.p == 0:
        den //= cfg.p
        v += 1
    c = -(-v // cfg.gamma)
    d = 0
    if den > 1:
        d = next(d for d in range(1, den + 1) if (q**d - 1) % den == 0)
    if d == 0:
        out = ref_root_of_power(f, int(alpha * q**c), c, cfg)
    else:
        a = int(alpha * q**c * (q**d - 1))
        cur = Submodule(1, (VectorR((f ** frac_ceil(Fraction(a, q**d - 1)),)),), ring)
        fa = f**a
        while True:
            scaled = Submodule(1, tuple(g.poly_mul(fa) for g in cur.generators), ring)
            step = frobenius_root(scaled, d, cfg)
            if contains_all(cur, step.generators):
                break
            cur = Submodule(cur.rank, cur.generators + step.generators, cur.ring)
        out = frobenius_root(cur, c, cfg) if c else cur
    fs = f**shift
    return Submodule(1, tuple(g.poly_mul(fs) for g in out.generators), ring)


def ref_f_jumping_exponents(f, cfg, e_max):
    grid = cfg.q**e_max
    window = max(1, -(-e_max // 2))
    out, prev = [], Submodule.full(1, f.ring)
    for k in range(1, grid + 1):
        cur = ref_root_of_power(f, k, e_max, cfg)
        if cur != prev:
            lo, hi = Fraction(k - 1, grid), Fraction(k, grid)
            snapped = snap_interval(lo, hi, cfg.q, window)
            out.append(snapped if snapped is not None else hi)
        prev = cur
    return out


# F_2, F_3, F_5 and q = 4 over F_2
CONFIGS = [CharConfig(2), CharConfig(3), CharConfig(5), CharConfig(2, 2)]


@st.composite
def nonconstant_polys(draw, max_terms=3, max_deg=3):
    cfg = draw(st.sampled_from(CONFIGS))
    ring = Ring(cfg.p, 2)
    monos = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg)).filter(
        lambda m: 0 < sum(m) <= max_deg
    )
    terms = draw(st.dictionaries(monos, st.integers(1, cfg.p - 1), min_size=1, max_size=max_terms))
    return cfg, Poly(ring, terms)


@st.composite
def exponent_cases(draw):
    """alpha = a / (q^c (q^d - 1)) with q^(c+d) small, alpha in (0, 2]."""
    cfg, f = draw(nonconstant_polys())
    q = cfg.q
    c, d = draw(
        st.sampled_from([(c, d) for c in range(3) for d in range(3) if q ** (c + d) <= 16])
    )
    den = q**c * (q**d - 1 if d else 1)
    alpha = Fraction(draw(st.integers(1, 2 * den)), den)
    return cfg, f, alpha


def case(p, text, alpha, gamma=1):
    cfg = CharConfig(p, gamma)
    return cfg, poly_parse(text, Ring(p, 2)), alpha


@settings(derandomize=True, max_examples=40, deadline=None)
@given(exponent_cases())
@example(case(2, "x0^2+x1^3", Fraction(5, 6)))  # alpha * q^c = 5/3 > 1
@example(case(3, "x0^2*x1+x1^2", Fraction(7, 6)))
@example(case(2, "x0^3+x0*x1", Fraction(5, 12), gamma=2))
def test_tau_f_stable_matches_power_oracle(data):
    cfg, f, alpha = data
    assert tau_f_stable(f, alpha, cfg) == ref_tau_f_stable(f, alpha, cfg)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(exponent_cases(), st.integers(0, 3))
@example(case(2, "x0^2+x1^3", Fraction(5, 6)), 3)
def test_tau_f_matches_power_oracle(data, e):
    cfg, f, alpha = data
    if cfg.q**e > 32:
        e = 1
    assert tau_f(f, alpha, e, cfg) == ref_tau_f(f, alpha, e, cfg)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(nonconstant_polys(), st.integers(2, 4))
@example((CharConfig(5), poly_parse("x0^2+x1^3", Ring(5, 2))), 2)
def test_f_jumping_exponents_match_power_oracle(data, e_max):
    cfg, f = data
    while cfg.q**e_max > 27:
        e_max -= 1
    assert f_jumping_exponents(f, cfg, e_max) == ref_f_jumping_exponents(f, cfg, e_max)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(nonconstant_polys(), st.integers(2, 4), st.tuples(st.integers(0, 26), st.integers(0, 26)))
def test_shared_prefixes_match_power_oracle(data, e, seed_mono):
    # one root graph serves every n, as in the jumping-exponent scan; the
    # monomial seed g keeps the inner roots apart from the unit ideal
    cfg, f = data
    while cfg.q**e > 27:
        e -= 1
    g = Poly.monomial(f.ring, tuple(u % cfg.q**e for u in seed_mono))
    seed = Submodule(1, (VectorR((g,)),), f.ring)
    powers = PowerCache(f)
    graph = _power_graph(powers, cfg)
    for n in range(cfg.q**e + cfg.q):
        got = _digit_root(n, e, seed, graph, powers)
        want = frobenius_root(Submodule(1, (VectorR((f**n * g,)),), f.ring), e, cfg)
        assert got == want


@settings(derandomize=True, max_examples=30, deadline=None)
@given(nonconstant_polys(), st.integers(0, 2))
@example((CharConfig(5), poly_parse("x0^2+x1^3", Ring(5, 2))), 1)
@example((CharConfig(2, 2), poly_parse("x0^2*x1+x1^2", Ring(2, 2))), 1)
def test_list_walk_matches_test_ideal_walk(data, e):
    # both users of the root graph: the simple list r_n = f^n walks it with
    # the matrix step, tau_f with the power step, and the piece at
    # m/q^{e+1} is (f^(m-1))^[1/q^{e+1}] on both
    cfg, f = data
    while cfg.q ** (e + 1) > 27:
        e -= 1
    r = [f**n for n in range(cfg.q)]
    grid = cfg.q ** (e + 1)
    for m in range(1, grid + 1):
        got = simple_list_I(r, GridRational(m, e, cfg), e, cfg)
        assert got == tau_f(f, Fraction(m - 1, grid), e + 1, cfg), f"m = {m}"


def ref_simple_pieces(r, e, cfg):
    """Roots of the full digit products, one level-(e+1) root each."""
    ring = r[0].ring
    out = []
    for m in range(1, cfg.q ** (e + 1) + 1):
        n, prod = m - 1, Poly.const(ring, 1)
        for k in range(e + 1):
            n, i_k = divmod(n, cfg.q)
            prod = prod * frobenius_power(r[i_k], k, cfg)
        out.append(frobenius_root(Submodule(1, (VectorR((prod,)),), ring), e + 1, cfg))
    return out


def ref_simple_tau_scan(r, e, cfg, pieces=None):
    """Cumulative sums of `ref_simple_pieces`, or of the given pieces."""
    if pieces is None:
        pieces = ref_simple_pieces(r, e, cfg)
    out, cum = [], Submodule.zero(1, r[0].ring)
    for piece in pieces:
        cum = Submodule(cum.rank, cum.generators + piece.generators, cum.ring)
        out.append(cum)
    return out


@st.composite
def simple_lists(draw):
    cfg = draw(st.sampled_from(CONFIGS))
    ring = Ring(cfg.p, 2)
    monos = st.tuples(st.integers(0, 3), st.integers(0, 3))
    polys = st.dictionaries(monos, st.integers(1, cfg.p - 1), max_size=2).map(
        lambda terms: Poly(ring, terms)
    )
    return cfg, [draw(polys) for _ in range(cfg.q)]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(simple_lists(), st.integers(0, 2))
def test_simple_tau_scan_matches_product_oracle(data, e):
    # every simple-list entry point against the products rooted whole; the
    # draws give walks of rank 1 (r_{q-1} = 0) and rank 2 (r_{q-1} != 0)
    cfg, r = data
    while cfg.q ** (e + 1) > 27:
        e -= 1
    pieces = ref_simple_pieces(r, e, cfg)
    want = ref_simple_tau_scan(r, e, cfg, pieces)
    scan = simple_tau_scan(r, e, cfg)
    assert scan == want
    for m, (piece, prefix) in enumerate(zip(pieces, want), start=1):
        lam = GridRational(m, e, cfg)
        got_I, got_tau = simple_list_I(r, lam, e, cfg), simple_list_tau(r, lam, e, cfg)
        assert got_I == piece, f"simple_list_I at m = {m}"
        assert got_tau == prefix, f"simple_list_tau at m = {m}"
        assert got_I.rank == got_tau.rank == scan[m - 1].rank == 1
    assert s_set_simple(r, e, cfg) == jump_report(want, e, cfg)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(nonconstant_polys(max_terms=2), st.integers(0, 300))
def test_power_cache_matches_pow(data, n):
    _, f = data
    assert PowerCache(f).power(n) == f**n


@settings(derandomize=True, max_examples=30, deadline=None)
@given(nonconstant_polys(max_terms=2), st.lists(st.integers(0, 300), max_size=12))
def test_shared_power_cache_in_any_order(data, ns):
    # one cache serves requests in any order, powers past p among them
    _, f = data
    cache = PowerCache(f)
    for n in ns:
        assert cache.power(n) == f**n, f"f^{n}"


def test_power_cache_all_small_powers():
    f = poly_parse("x0^2*x1+x1^3+x0+1", Ring(3, 2))
    cache = PowerCache(f)
    want = Poly.const(f.ring, 1)
    for n in range(61):
        assert cache.power(n) == want
        want = want * f


def test_power_cache_large_prime_digit():
    # a base-p digit near p = 1511 is built by a loop, not 1500 nested calls
    ring = Ring(1511, 2)
    cache = PowerCache(poly_parse("x0", ring))
    assert cache.power(1500) == Poly.monomial(ring, (1500, 0))
    assert cache.power(1510 * 1511 + 1499) == Poly.monomial(ring, (1510 * 1511 + 1499, 0))


# -- closed forms -------------------------------------------------------------


def cusp_fpt(p):
    """fpt(x^2 + y^3) in characteristic p (Mustata-Takagi-Watanabe)."""
    if p in (2, 3):
        return Fraction(p - 1, p)
    if p % 6 == 1:
        return Fraction(5, 6)
    return Fraction(5, 6) - Fraction(1, 6 * p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_cusp_fpt_closed_form(p):
    cfg, ring = CharConfig(p), Ring(p, 2)
    f = poly_parse("x0^2+x1^3", ring)
    fpt = cusp_fpt(p)
    assert tau_f_stable(f, fpt, cfg) == ideal(ring, "x0", "x1")
    assert tau_f_stable(f, fpt - Fraction(1, p**3), cfg) == Submodule.full(1, ring)


@pytest.mark.parametrize(
    "p,text,t",
    [
        (2, "x0^2+x1^3", Fraction(1, 3)),
        (3, "x0^2*x1+x1^2", Fraction(3, 4)),
        (5, "x0^2+x1^3", Fraction(4, 5)),
    ],
)
def test_skoda(p, text, t):
    cfg, ring = CharConfig(p), Ring(p, 2)
    f = poly_parse(text, ring)
    inner = tau_f_stable(f, t, cfg)
    times_f = Submodule(1, tuple(g.poly_mul(f) for g in inner.generators), ring)
    assert tau_f_stable(f, 1 + t, cfg) == times_f


def test_trinomial_at_five_sevenths():
    # f^a for this exponent has a = 11160; forming it took over 300 s
    cfg = CharConfig(5)
    f = poly_parse("x0^2*x1+x1^3+x2^4", Ring(5, 3))
    start = time.perf_counter()
    got = tau_f_stable(f, Fraction(5, 7), cfg)
    assert time.perf_counter() - start < 5
    assert got == tau_f(f, Fraction(5, 7), 8, cfg)


# -- the digit chain against one pruned public root per level --------------


def ref_digit_chain(n, e, K, factor, cfg):
    """(factor(n_0) factor(n_1)^q ... K)^[1/q^e] times factor(N): one public,
    pruned `frobenius_root` per base-q digit, nothing shared."""
    for _ in range(e):
        n, digit = divmod(n, cfg.q)
        scaled = Submodule(1, tuple(v.poly_mul(factor(digit)) for v in K.generators), K.ring)
        K = frobenius_root(scaled, 1, cfg)
    if n:
        K = Submodule(1, tuple(v.poly_mul(factor(n)) for v in K.generators), K.ring)
    return K


def monomial_ideal(ring, mono):
    if mono is None:
        return Submodule.full(1, ring)
    return Submodule(1, (VectorR((Poly.monomial(ring, mono),)),), ring)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    nonconstant_polys(),
    st.integers(0, 3),
    st.lists(st.integers(0, 10**4), min_size=1, max_size=6),
    st.one_of(st.none(), st.tuples(st.integers(0, 8), st.integers(0, 8))),
    st.one_of(st.none(), st.tuples(st.integers(0, 8), st.integers(0, 8))),
    st.booleans(),
)
def test_digit_root_matches_pruned_chain(data, e, draws, seed_mono, other_mono, shared):
    # a shared graph serves two seeds at once: its keys are spans, so a state
    # reached from either seed is rooted once and right for both
    cfg, f = data
    ring = f.ring
    seeds = [monomial_ideal(ring, seed_mono), monomial_ideal(ring, other_mono)]
    powers = PowerCache(f)
    graph = _power_graph(powers, cfg)
    for n in (d % (cfg.q ** (e + 1)) for d in draws):
        for seed in seeds:
            got = _digit_root(n, e, seed, graph if shared else _power_graph(powers, cfg), powers)
            assert got == ref_digit_chain(n, e, seed, powers.power, cfg)
            if e and n < cfg.q**e:
                # each level is carried as its reduced basis, the last one too
                assert got.generators == got.reduced_basis()
    for level in graph.edges.values():
        assert level.generators == level.reduced_basis()


@pytest.mark.parametrize(
    "p, text, e, seeds",
    [
        (2, "x0^2+x1^3", 4, [None, (1, 0)]),
        (3, "x0^2*x1+x1^2", 3, [None, (0, 2)]),
        (5, "x0^2+x1^3", 2, [None]),
    ],
)
def test_one_root_per_distinct_state_and_digit(monkeypatch, p, text, e, seeds):
    # the pruned reference chain visits the same spans; every distinct
    # (reduced basis, digit) pair it meets costs exactly one root, and the
    # multiplier by f^d is built once per digit, not once per root
    cfg = CharConfig(p)
    f = poly_parse(text, Ring(p, 2))
    powers = PowerCache(f)
    power = powers.power
    keys = set()
    for mono in seeds:
        seed = monomial_ideal(f.ring, mono)
        for n in range(cfg.q**e):
            K = seed
            for _ in range(e):
                n, digit = divmod(n, cfg.q)
                keys.add((K.reduced_basis(), digit))
                K = ref_digit_chain(digit, 1, K, power, cfg)
    calls = spy_root_steps(monkeypatch)
    built = []
    scalar = testideal._scalar
    monkeypatch.setattr(testideal, "_scalar", lambda g, rank: built.append(g) or scalar(g, rank))
    graph = _power_graph(powers, cfg)
    for mono in seeds:
        seed = monomial_ideal(f.ring, mono)
        for n in range(cfg.q**e):
            _digit_root(n, e, seed, graph, powers)
    assert len(calls) == len(keys) == len(graph.edges)
    assert built == [power(d) for d in dict.fromkeys(d for _, d in graph.edges)]
    assert len(keys) < len(seeds) * sum(cfg.q**i for i in range(1, e + 1))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(exponent_cases())
@example(case(5, "x0^2+x1^3", Fraction(5, 7)))
@example(case(2, "x0^2+x1^3", Fraction(1, 3)))
@example(case(2, "x0^3", Fraction(2, 7)))
@example(case(3, "x0^2+x1^3", Fraction(5, 8)))
def test_tau_f_stable_shared_children_match_fresh(data):
    # every _ascend step and the final root share one graph; giving each call
    # its own must not change the ideal.  Each ascent step roots the same
    # digits over a new seed, so a memo keyed by the digits read so far
    # would hand back the first step's levels: the examples above catch that.
    cfg, f, alpha = data
    shared = tau_f_stable(f, alpha, cfg)

    def unshared(n, e, K, graph, powers):
        return _digit_root(n, e, K, _power_graph(powers, cfg), powers)

    with mock.patch.object(testideal, "_digit_root", unshared):
        fresh = tau_f_stable(f, alpha, cfg)
    assert shared == fresh


# -- the ascent on its steps against the plain one ------------------------------


def naive_ascend(a, d, seed, graph, powers, cap):
    """The plain iteration K <- K + Phi(K): every step roots the whole running sum."""
    cur = seed
    for _ in range(cap):
        step = testideal._digit_root(a, d, cur, graph, powers)
        if cur._contains_flats(step._flats):
            return cur
        cur = Submodule(cur.rank, cur.generators + step.generators, cur.ring)
    raise StabilizationError(f"test-ideal ascent did not stabilize within {cap} steps")


def ascent_seed(f, alpha, cfg):
    """(a, d, seed) of the ascent in `tau_f_stable(f, alpha)`."""
    a, _, d = testideal._pe_decompose(alpha, cfg)
    a %= cfg.q**d - 1
    return a, d, testideal._ideal(PowerCache(f).power(frac_ceil(Fraction(a, cfg.q**d - 1))))


def ascent_outcome(ascend, f, alpha, cfg, cap):
    """The fixed point's reduced basis, or StabilizationError, and the roots taken."""
    a, d, seed = ascent_seed(f, alpha, cfg)
    calls = []
    digit_root = testideal._digit_root

    def counted(*args):
        calls.append(None)
        return digit_root(*args)

    with mock.patch.object(testideal, "_digit_root", counted):
        try:
            powers = PowerCache(f)
            out = ascend(a, d, seed, _power_graph(powers, cfg), powers, cap).reduced_basis()
        except StabilizationError:
            out = StabilizationError
    return out, len(calls)


@st.composite
def ascent_cases(draw):
    """f over F_2, F_3 or F_5 and alpha = a / (q^c (q^d - 1)) with d >= 1."""
    cfg, f = draw(nonconstant_polys().filter(lambda data: data[0].gamma == 1))
    q = cfg.q
    c, d = draw(
        st.sampled_from([(c, d) for c in range(3) for d in (1, 2) if q ** (c + d) <= 25])
    )
    den = q**c * (q**d - 1)
    alpha = Fraction(draw(st.integers(1, 2 * den)), den)
    assume(testideal._pe_decompose(alpha, cfg)[2] >= 1)
    return cfg, f, alpha


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ascent_cases(), st.sampled_from([1, 2, 64]))
@example(case(5, "x0^2+x1^3", Fraction(3, 4)), 2)  # stops at the third root
@example(case(5, "x0^2+x1^3", Fraction(3, 4)), 3)
@example(case(5, "x0^3+x1^4", Fraction(19, 24)), 64)
def test_ascent_matches_plain_iteration(data, cap):
    # the same fixed point after the same number of roots; or
    # StabilizationError from both
    cfg, f, alpha = data
    got = ascent_outcome(testideal._ascend, f, alpha, cfg, cap)
    assert got == ascent_outcome(naive_ascend, f, alpha, cfg, cap)
    if alpha < 1:
        # no factor of f is left after the digit steps: the generators are
        # the reduced basis, as for tau_f
        stable = tau_f_stable(f, alpha, cfg)
        assert stable.generators == stable.reduced_basis()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ascent_cases())
@example(case(5, "x0^2+x1^3", Fraction(3, 4)))
@example(case(5, "x0^3+x1^4", Fraction(19, 24)))
def test_ascent_steps_ascend(data):
    # seed <= Phi(seed), and each step contains the one before, up to the
    # fixed point: the steps are the sums of the plain iteration, so a
    # repeated step is a stopping proof
    cfg, f, alpha = data
    a, d, seed = ascent_seed(f, alpha, cfg)
    powers = PowerCache(f)
    graph = _power_graph(powers, cfg)
    prev = seed
    for _ in range(DEFAULT_STABLE_CAP):
        step = _digit_root(a, d, prev, graph, powers)
        assert contains_all(step, prev.generators)
        if step == prev:
            break
        prev = step
    else:
        pytest.fail(f"no fixed point within {DEFAULT_STABLE_CAP} steps")
    assert step.generators == step.reduced_basis()


def test_ascent_roots_only_the_newest_step(monkeypatch):
    # every root after the first is taken over the step found last; this
    # ascent takes three roots
    cfg = CharConfig(5)
    f = poly_parse("x0^2+x1^3", Ring(5, 2))
    a, d, seed = ascent_seed(f, Fraction(3, 4), cfg)
    calls = []
    digit_root = testideal._digit_root

    def recorded(n, e, K, *args):
        out = digit_root(n, e, K, *args)
        calls.append((K, out))
        return out

    monkeypatch.setattr(testideal, "_digit_root", recorded)
    powers = PowerCache(f)
    testideal._ascend(a, d, seed, _power_graph(powers, cfg), powers, 8)
    assert len(calls) == 3 and calls[0][0] is seed
    assert all(K is step for (_, step), (K, _) in zip(calls, calls[1:]))


def ref_pe_decompose(alpha, cfg):
    """`testideal._pe_decompose` in its `Fraction` form, without the period cap."""
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


@st.composite
def pe_alphas(draw):
    """alpha = num / (p^v den) over F_2 (q = 2 or 4), F_3 or F_5, den prime to p."""
    p = draw(st.sampled_from([2, 3, 5]))
    cfg = CharConfig(p, draw(st.sampled_from([1, 2])))
    den = draw(st.integers(1, 200).filter(lambda n: n % p))
    full = p ** draw(st.integers(0, 5)) * den
    return cfg, Fraction(draw(st.integers(1, 3 * full)), full)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(pe_alphas())
def test_pe_decompose_matches_fraction_form(case):
    # the integer set-up of the ascent gives the Fraction form's a, c and d
    cfg, alpha = case
    a, c, d = testideal._pe_decompose(alpha, cfg)
    assert (a, c, d) == ref_pe_decompose(alpha, cfg)
    assert all(type(x) is int for x in (a, c, d))
    assert alpha == Fraction(a, cfg.q**c * (cfg.q**d - 1 if d else 1))


@pytest.mark.parametrize("p, alpha", [(2, Fraction(1, 1000003)), (3, Fraction(99999999, 100000000))])
def test_long_period_is_a_resource_limit(p, alpha):
    # periods 1000002 and 5000000: the order search stops at the cap,
    # before q^d or any root, and the call returns at once
    f = poly_parse("x0^2+x1^3", Ring(p, 2))
    start = time.perf_counter()
    with pytest.raises(ResourceLimitExceeded, match=f"exceeds the cap of {MAX_PERIOD}"):
        tau_f_stable(f, alpha, CharConfig(p))
    assert time.perf_counter() - start < 1.0


def test_period_cap_boundary(monkeypatch):
    # 1/5 has period 4 at q = 2 and 1/31 period 5: a period equal to the cap
    # is solved, one past it is refused
    monkeypatch.setattr(testideal, "MAX_PERIOD", 4)
    cfg = CharConfig(2)
    f = poly_parse("x0^2+x1^3", Ring(2, 2))
    assert testideal._pe_decompose(Fraction(1, 5), cfg) == (3, 0, 4)
    assert tau_f_stable(f, Fraction(1, 5), cfg) == Submodule.full(1, f.ring)
    with pytest.raises(ResourceLimitExceeded, match="exceeds the cap of 4"):
        tau_f_stable(f, Fraction(1, 31), cfg)


def test_level_cap_boundary(monkeypatch):
    # a level equal to the cap is solved, one past it is refused: tau_f's e,
    # f_jumping_exponents' e_max and the c of a q-power alpha alike
    cfg = CharConfig(2)
    f = poly_parse("x0^2+x1^3", Ring(2, 2))
    at_cap = [
        lambda: tau_f(f, Fraction(2, 3), 3, cfg),
        lambda: f_jumping_exponents(f, cfg, 3),
        lambda: tau_f_stable(f, Fraction(7, 8), cfg),
        lambda: tau_f_stable(f, Fraction(5, 7 * 8), cfg),
    ]
    expected = [solve() for solve in at_cap]
    monkeypatch.setattr(frobenius, "MAX_LEVEL", 3)
    assert [solve() for solve in at_cap] == expected
    for solve in (
        lambda: tau_f(f, Fraction(1, 3), 4, cfg),
        lambda: f_jumping_exponents(f, cfg, 4),
        lambda: tau_f_stable(f, Fraction(7, 16), cfg),
        lambda: tau_f_stable(f, Fraction(1, 7 * 16), cfg),
    ):
        with pytest.raises(ResourceLimitExceeded, match="= 4 exceeds the level cap of 3"):
            solve()


@pytest.mark.parametrize("solve", [
    lambda f, cfg: tau_f(f, Fraction(1, 3), 10**9, cfg),
    lambda f, cfg: f_jumping_exponents(f, cfg, 10**9),
    lambda f, cfg: tau_f_stable(f, Fraction(1, 2**(MAX_LEVEL + 1)), cfg),
], ids=["tau_f", "f_jumping_exponents", "q-power alpha"])
def test_deep_level_is_a_resource_limit(solve):
    # the cap is checked before q^e is formed, so the call returns at once
    f = poly_parse("x0^2+x1^3", Ring(2, 2))
    start = time.perf_counter()
    with pytest.raises(ResourceLimitExceeded, match=f"exceeds the level cap of {MAX_LEVEL}"):
        solve(f, CharConfig(2))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "solve, runs",
    [
        (lambda: f_jumping_exponents(poly_parse("x0^2+x1^3", Ring(7, 2)), CharConfig(7), 2), 10),
        (lambda: tau_f_stable(poly_parse("x0^2+x1^3", Ring(5, 2)), Fraction(5, 7), CharConfig(5)), 8),
    ],
    ids=["fjump-cusp-p7-e2", "tau-cusp-5/7-p5"],
)
def test_buchberger_runs_per_problem(monkeypatch, solve, runs):
    # one reduced basis per distinct (state, digit) root, counted at the one
    # basis entry point, term-generated roots included; pruning each root's
    # n generators would cost n + 1 (249 and 39 runs on these two problems)
    calls = []
    basis = modgb._basis

    def counted(*args):
        calls.append(None)
        return basis(*args)

    monkeypatch.setattr(modgb, "_basis", counted)
    solve()
    assert len(calls) == runs


def test_bisection_roots_few_grid_points(monkeypatch):
    # the cusp at p=13, e_max=3 has 2197 grid points; a scan of all of them
    # takes 2379 one-level roots, the bisection with one root per distinct
    # state and digit 16
    calls = spy_root_steps(monkeypatch)
    f = poly_parse("x0^2+x1^3", Ring(13, 2))
    assert f_jumping_exponents(f, CharConfig(13), 3) == [Fraction(5, 6), Fraction(1)]
    assert len(calls) == 16


@pytest.mark.parametrize(
    "cfg, e_max", [(CharConfig(7), 2), (CharConfig(7, 2), 1), (CharConfig(7, 2), 2)]
)
def test_bisection_compares_roots_by_identity(monkeypatch, cfg, e_max):
    # every root the bisection compares, the grid's two ends included, is
    # its graph's one object for its span, so no reduced bases are compared
    compared = []
    plain_eq = Submodule.__eq__

    def counting_eq(self, other):
        compared.append(other)
        return plain_eq(self, other)

    monkeypatch.setattr(Submodule, "__eq__", counting_eq)
    f = poly_parse("x0^2+x1^3", Ring(7, 2))
    assert f_jumping_exponents(f, cfg, e_max) == [Fraction(5, 6), Fraction(1)]
    assert compared == []


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_cusp_f_jumping_exponents_closed_form(p):
    f = poly_parse("x0^2+x1^3", Ring(p, 2))
    assert f_jumping_exponents(f, CharConfig(p), 3) == [cusp_fpt(p), Fraction(1)]


# -- the bisection against the linear scan it replaced ----------------------


def linear_f_jumping_exponents(f, cfg, e_max):
    """Every grid point k/q^e_max rooted in turn, each compared with the last."""
    if f.is_zero() or f.is_constant():
        raise ValueError("f must be nonzero and not a unit")
    if e_max < 1:
        raise ValueError("e_max must be positive")
    q = cfg.q
    grid = q**e_max
    window = max(1, -(-e_max // 2))
    powers = PowerCache(f)
    full = Submodule.full(1, f.ring)
    graph = _power_graph(powers, cfg)

    out = []
    prev = full
    for k in range(1, grid + 1):
        cur = _digit_root(k, e_max, full, graph, powers)
        if cur != prev:
            lo = Fraction(k - 1, grid)
            hi = Fraction(k, grid)
            snapped = snap_interval(lo, hi, q, window)
            out.append(snapped if snapped is not None else hi)
        prev = cur
    return out


@st.composite
def jump_cases(draw, max_grid=343):
    """p in {2, 3, 5, 7}, e with p^e <= max_grid, f of degree <= 4 in two
    variables, not a constant."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    e = draw(st.integers(1, max(e for e in range(1, 9) if p**e <= max_grid)))
    ring = Ring(p, 2)
    monos = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda m: sum(m) <= 4)
    terms = draw(
        st.dictionaries(monos, st.integers(1, p - 1), min_size=1, max_size=4).filter(
            lambda t: any(sum(m) for m in t)
        )
    )
    return CharConfig(p), Poly(ring, terms), e


@settings(derandomize=True, max_examples=30, deadline=None)
@given(jump_cases())
@example((CharConfig(7), poly_parse("x0^2+x1^3", Ring(7, 2)), 3))
@example((CharConfig(2), poly_parse("x0^4+x0*x1^2+x1^3", Ring(2, 2)), 8))
@example((CharConfig(3), poly_parse("x0^2*x1+x1^2+1", Ring(3, 2)), 5))
def test_f_jumping_exponents_match_linear_scan(data):
    cfg, f, e_max = data
    assert f_jumping_exponents(f, cfg, e_max) == linear_f_jumping_exponents(f, cfg, e_max)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(jump_cases(max_grid=125), st.data())
def test_grid_roots_never_grow(data, draw):
    # the premise of the bisection: (f^k)^[1/q^e] contains (f^k')^[1/q^e]
    # for k < k'
    cfg, f, e = data
    grid = cfg.q**e
    k = draw.draw(st.integers(0, grid - 1))
    k2 = draw.draw(st.integers(k + 1, grid))
    full = Submodule.full(1, f.ring)
    powers = PowerCache(f)
    low, high = (_digit_root(n, e, full, _power_graph(powers, cfg), powers) for n in (k, k2))
    assert contains_all(low, high.generators)

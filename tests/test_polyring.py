import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsing import polyring
from fsing.errors import PolyParseError, ResourceLimitExceeded
from fsing.polyring import (
    MAX_P,
    MAX_POWER_TERMS,
    CharConfig,
    Poly,
    PowerCache,
    Ring,
    frobenius_decompose,
    frobenius_power,
    grevlex_key,
    poly_parse,
)

import poly_walk


def test_charconfig_rejects_composite():
    with pytest.raises(ValueError):
        CharConfig(4)


@pytest.mark.parametrize("make", [CharConfig, lambda p: Ring(p, 1)], ids=["CharConfig", "Ring"])
def test_characteristic_cap(make):
    # the cap is the prime 2^31 - 1, checked by 46,341 divisions at most; a
    # p past it is refused before any division
    assert MAX_P == 2**31 - 1
    assert make(MAX_P).p == MAX_P
    for p in (MAX_P + 2, 1000000016000000063):
        with pytest.raises(ValueError, match=f"p = {p} exceeds the cap of {MAX_P}"):
            make(p)
    for p in (0, 1, 4, 46337 * 46337):
        with pytest.raises(ValueError, match=f"p = {p} is not prime"):
            make(p)


def test_charconfig_q():
    assert CharConfig(2, 3).q == 8
    assert CharConfig(5).q == 5


def test_q_cap():
    # q is capped where p is: a list walk builds one digit slice per d < q
    assert CharConfig(2, 30).q == 2**30
    assert CharConfig(46337, 2).q == 46337**2 < MAX_P
    for p, gamma in [(2, 31), (46349, 2), (MAX_P, 2), (3, 10**9)]:
        with pytest.raises(ValueError, match=rf"q = {p}\^{gamma} exceeds the cap of {MAX_P}"):
            CharConfig(p, gamma)


def test_ring_width_and_names():
    r = Ring(3, 2, "t")
    assert r.width == 3
    assert r.var_names() == ("x0", "x1", "t")
    assert r.base() == Ring(3, 2)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("x0", "x0"),
        ("2*x0^2 + x1", "2*x0^2 + x1"),
        ("x0 + x0", "2*x0"),
        ("3*x0", "0"),
        ("x1*x0", "x0*x1"),
        ("1 + 1 + 1", "0"),
        ("x0^2*x0", "x0^3"),
    ],
)
def test_parse_and_str_canonical(text, expected):
    ring = Ring(3, 2)
    assert str(poly_parse(text, ring)) == expected


def test_parse_t_and_tau():
    assert str(poly_parse("t^2 + x0*t", Ring(2, 1, "t"))) == "x0*t + t^2"
    assert str(poly_parse("tau", Ring(2, 0, "tau"))) == "tau"


@pytest.mark.parametrize(
    "bad",
    ["x0 -", "x2", "x0^", "*x0", "x0 + ", "", "y0", "t", "x0^x0", "2.5"],
)
def test_parse_errors(bad):
    with pytest.raises(PolyParseError):
        poly_parse(bad, Ring(2, 2))


def test_parse_error_position():
    with pytest.raises(PolyParseError) as exc:
        poly_parse("x0 + x9", Ring(2, 2))
    assert exc.value.position == 5


def test_mod_p_normalization():
    ring = Ring(2, 1)
    f = poly_parse("x0", ring)
    assert (f + f).is_zero()


def test_arithmetic():
    ring = Ring(5, 2)
    f = poly_parse("x0 + x1", ring)
    g = poly_parse("x0 + 4*x1", ring)
    assert str(f * g) == "x0^2 + 4*x1^2"
    assert (f - f).is_zero()
    assert str(f.scale(2)) == "2*x0 + 2*x1"


def test_pow_matches_repeated_mul():
    ring = Ring(3, 1)
    f = poly_parse("x0 + 1", ring)
    assert f**4 == f * f * f * f
    assert f**0 == Poly.const(ring, 1)


def test_freshman_dream():
    ring = Ring(3, 2)
    f = poly_parse("x0 + x1", ring)
    assert str(f**3) == "x0^3 + x1^3"


def test_split_and_lift_roundtrip():
    tring = Ring(3, 1, "t")
    f = poly_parse("x0^2 + x0*t + t^2", tring)
    parts = f.split_extra()
    assert sorted(parts) == [0, 1, 2]
    rebuilt = Poly.zero(tring)
    for k, c in parts.items():
        rebuilt = rebuilt + c.lift_to(tring, k)
    assert rebuilt == f


def test_grevlex_order():
    # graded first, then reverse lex within a degree
    assert grevlex_key((2, 0)) > grevlex_key((1, 1)) > grevlex_key((0, 2))
    assert grevlex_key((1, 0, 0)) > grevlex_key((0, 1, 0)) > grevlex_key((0, 0, 1))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 4).flatmap(lambda width: st.tuples(*[st.integers(0, 10**6)] * width)))
def test_grevlex_key_matches_formula(m):
    # the key built by map(neg, reversed(m)) against the generator it replaced
    assert grevlex_key(m) == (sum(m), tuple(-e for e in reversed(m)))


def test_frobenius_power():
    cfg = CharConfig(2)
    ring = Ring(2, 2)
    f = poly_parse("x0 + x1^2", ring)
    assert frobenius_power(f, 2, cfg) == poly_parse("x0^4 + x1^8", ring)


def test_frobenius_decompose_reconstructs():
    cfg = CharConfig(3)
    ring = Ring(3, 2)
    f = poly_parse("x0^7 + 2*x0^2*x1^4 + x1", ring)
    parts = frobenius_decompose(f, 1, cfg)
    rebuilt = Poly.zero(ring)
    for u, a in parts.items():
        rebuilt = rebuilt + frobenius_power(a, 1, cfg).term_mul(u)
    assert rebuilt == f
    assert all(all(ui < 3 for ui in u) for u in parts)


def test_frobenius_decompose_monomial():
    cfg = CharConfig(2)
    ring = Ring(2, 1)
    parts = frobenius_decompose(poly_parse("x0^3", ring), 1, cfg)
    assert parts == {(1,): poly_parse("x0", ring)}


def test_power_cache_consistent():
    ring = Ring(3, 1)
    f = poly_parse("x0 + 1", ring)
    cache = PowerCache(f)
    for n in [0, 1, 5, 9, 2, 80, 3**7 + 1]:
        assert cache.power(n) == f**n


def test_power_cache_takes_any_number_of_digits():
    # one loop step per base-p digit: 10^400 has 1329 binary digits, which
    # ran past the recursion limit
    ring = Ring(2, 1)
    n = 10**400
    assert PowerCache(poly_parse("x0", ring)).power(n) == Poly.monomial(ring, (n,))


def test_power_cache_term_cap(monkeypatch):
    # (x0 + x1)^3 = (x0 + x1)^[2] (x0 + x1) over F_2: one product of 2 x 2 terms
    f = poly_parse("x0 + x1", Ring(2, 2))
    assert MAX_POWER_TERMS == 100_000
    monkeypatch.setattr(polyring, "MAX_POWER_TERMS", 4)
    assert PowerCache(f).power(3) == f**3
    monkeypatch.setattr(polyring, "MAX_POWER_TERMS", 3)
    with pytest.raises(ResourceLimitExceeded, match="may reach 4 terms, past the cap of 3"):
        PowerCache(f).power(3)
    # the digit powers f^d, d < p, are products too
    g = poly_parse("x0 + x1", Ring(3, 2))
    with pytest.raises(ResourceLimitExceeded, match="may reach 4 terms, past the cap of 3"):
        PowerCache(g).power(2)


# -- the trusted internal constructor ---------------------------------------------
# Arithmetic builds its results with Poly._trusted, which skips the arity and
# sign checks.  Each result must equal what the checked public constructor
# makes of the same raw term map.


@st.composite
def poly_pairs(draw, extra=None):
    p = draw(st.sampled_from([2, 3, 5]))
    ring = Ring(p, 2, extra)
    monos = st.tuples(*[st.integers(0, 3)] * ring.width)
    # coefficients outside 1..p-1, zeros included, exercise the reduction
    polys = st.dictionaries(monos, st.integers(-2 * p, 2 * p), max_size=4).map(
        lambda terms: Poly(ring, terms)
    )
    return draw(polys), draw(polys)


def assert_canonical(f, raw):
    assert f.terms == Poly(f.ring, raw).terms
    assert all(0 < c < f.ring.p for c in f.terms.values())
    assert hash(f) == hash(Poly(f.ring, raw))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(poly_pairs(), st.integers(-7, 7))
def test_trusted_arithmetic(pair, c):
    f, g = pair
    raw_sum = dict(f.terms)
    for m, cc in g.terms.items():
        raw_sum[m] = raw_sum.get(m, 0) + cc
    assert_canonical(f + g, raw_sum)
    assert_canonical(-f, {m: -cc for m, cc in f.terms.items()})
    raw_prod = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            raw_prod[m] = raw_prod.get(m, 0) + c1 * c2
    assert_canonical(f * g, raw_prod)
    assert_canonical(f.scale(c), {m: cc * c for m, cc in f.terms.items()})


@settings(derandomize=True, max_examples=60, deadline=None)
@given(poly_pairs(extra="t"), st.integers(0, 3))
def test_trusted_split_and_lift(pair, k):
    f, _ = pair
    base = f.ring.base()
    parts = f.split_extra()
    for j, c in parts.items():
        assert_canonical(c, {m[:-1]: cc for m, cc in f.terms.items() if m[-1] == j})
    assert sorted(parts) == sorted({m[-1] for m in f.terms})
    for c in parts.values():
        assert_canonical(
            c.lift_to(f.ring, k), {m + (k,): cc for m, cc in c.terms.items()}
        )
        assert c.ring == base


@settings(derandomize=True, max_examples=60, deadline=None)
@given(poly_pairs(), st.integers(1, 2))
def test_trusted_frobenius(pair, e):
    f, _ = pair
    cfg = CharConfig(f.ring.p)
    s = cfg.q**e
    assert_canonical(
        frobenius_power(f, e, cfg),
        {tuple(v * s for v in m): c for m, c in f.terms.items()},
    )
    parts = frobenius_decompose(f, e, cfg)
    for u, a in parts.items():
        raw = {
            tuple(v // s for v in m): c
            for m, c in f.terms.items()
            if tuple(v % s for v in m) == u
        }
        assert_canonical(a, raw)
    assert sorted(parts) == sorted({tuple(v % s for v in m) for m in f.terms})


def test_public_constructor_keeps_checks():
    ring = Ring(3, 2)
    with pytest.raises(ValueError, match="arity"):
        Poly(ring, {(1,): 1})
    with pytest.raises(ValueError, match="negative"):
        Poly(ring, {(1, -1): 1})
    with pytest.raises(ValueError, match="negative"):
        Poly.monomial(Ring(3, 0), ()).lift_to(Ring(3, 0, "t"), -1)


# -- the token walk ------------------------------------------------------------------
# poly_parse reads every text by one token walk.  `poly_walk` keeps the walk
# as it was before the walk was made lean: on ASCII text the two must agree
# term for term, in the same order, and error for error.


@pytest.mark.parametrize("space", ["\xa0", "\u2003"], ids=["no-break", "em"])
def test_non_ascii_whitespace_is_whitespace(space):
    ring = Ring(3, 2)
    assert poly_parse(f"x0 +{space}x1", ring) == poly_parse("x0 + x1", ring)


@pytest.mark.parametrize("text, position", [
    ("x²", 1),         # superscript two: was int("²") raising a bare ValueError
    ("2²*x0", 1),      # was int("2²") raising a bare ValueError
    ("x٣", 1),         # Arabic-Indic three: was read as x3
    ("٣*x0", 0),       # was read as the coefficient 3
    ("x0 + é", 5),     # a letter outside ASCII
])
def test_non_ascii_digits_and_letters_are_unexpected(text, position):
    with pytest.raises(PolyParseError) as exc:
        poly_parse(text, Ring(5, 4))
    assert str(exc.value) == f"unexpected character {text[position]!r} (at position {position})"
    assert exc.value.position == position


@pytest.mark.parametrize("text, position", [
    ("9" * 5000 + "*x0", 0),   # a coefficient
    ("x0^" + "9" * 5000, 3),   # an exponent
    ("x" + "9" * 5000, 0),     # a variable index
    ("x0 + x" + "0" * 5000, 5),
], ids=["coefficient", "exponent", "index", "zero-index"])
def test_integer_past_digit_limit_is_a_parse_error(text, position):
    # int() refuses a string of more than 4300 digits with a bare ValueError
    with pytest.raises(PolyParseError, match="digits is too long") as exc:
        poly_parse(text, Ring(5, 4))
    assert exc.value.position == position


def outcome(parse, text, ring):
    try:
        return list(parse(text, ring).terms.items())
    except PolyParseError as exc:
        return str(exc), exc.position


PIECES = ["x0", "x1", "x01", "x9", "t", "tau", "y", "0", "2", "10", "007", "+", "*", "^", " ", "\t"]
RINGS = [Ring(3, 2), Ring(3, 2, "t"), Ring(5, 10, "tau")]


@st.composite
def well_formed(draw):
    """Text of the grammar's shape, with names the ring may not have."""
    blank = st.sampled_from(["", " ", "\t", "  "])
    names = st.sampled_from(["x0", "x1", "x01", "x9", "t", "tau", "y"])
    numbers = st.sampled_from(["0", "2", "10", "007"])
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        factors = [
            draw(names) + (draw(blank) + "^" + draw(blank) + draw(numbers) if draw(st.booleans()) else "")
            for _ in range(draw(st.integers(0, 3)))
        ]
        if not factors or draw(st.booleans()):
            factors.insert(0, draw(numbers))
        terms.append(draw(blank) + (draw(blank) + "*" + draw(blank)).join(factors) + draw(blank))
    return "+".join(terms)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(
    st.one_of(well_formed(), st.lists(st.sampled_from(PIECES), max_size=12).map("".join)),
    st.sampled_from(RINGS),
)
def test_poly_parse_matches_the_token_walk(text, ring):
    assert outcome(poly_parse, text, ring) == outcome(poly_walk.poly_parse, text, ring)

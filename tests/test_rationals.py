from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsing.polyring import CharConfig
from fsing.rationals import ChainFit, detect_chain_limit, snap_interval


def ref_snap_interval(lo, hi, q, window):
    """The search over `Fraction` candidates that the integer one replaced."""
    candidates = []
    for a in range(window + 1):
        for b in range(1, window + 1):
            den = q**a * (q**b - 1)
            c_hi = (hi.numerator * den) // hi.denominator
            c_lo = (lo.numerator * den) // lo.denominator
            for c in range(c_lo + 1, c_hi + 1):
                val = Fraction(c, den)
                if lo < val <= hi:
                    candidates.append(val)
    if not candidates:
        return None
    return min(candidates, key=lambda v: (v.denominator, -v))


@st.composite
def grid_intervals(draw):
    """(k/q^e, (k+1)/q^e] with the window of `f_jumping_exponents` or one next to it."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7]))
    e = draw(st.integers(1, 4))
    k = draw(st.integers(0, q**e - 1))
    window = max(1, -(-e // 2) + draw(st.integers(-1, 1)))
    return Fraction(k, q**e), Fraction(k + 1, q**e), q, window


@st.composite
def loose_intervals(draw):
    """Any two small fractions in [-1, 2], empty and reversed intervals included."""
    fractions = st.builds(Fraction, st.integers(-30, 60), st.integers(1, 30))
    q = draw(st.sampled_from([2, 3, 5, 7]))
    return draw(fractions), draw(fractions), q, draw(st.integers(0, 2))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(grid_intervals(), loose_intervals()))
@example((Fraction(0), Fraction(1), 2, 1))  # candidates 1/1 and 2/2, one value
@example((Fraction(1, 2), Fraction(1, 2), 3, 2))  # empty
@example((Fraction(0), Fraction(0), 5, 1))  # empty at 0
@example((Fraction(-1), Fraction(0), 2, 2))  # 0 is a candidate
def test_snap_interval_matches_fraction_search(case):
    assert snap_interval(*case) == ref_snap_interval(*case)


def test_chain_limit_fits_each_phase():
    # the D5 chain of x0^2*x1 + x1^4 at p = 3: its limit 1/8 = 0.(01)_3 has
    # digit period 2, and the equations m_{e+2} = 9 m_e + c give c = 1 at
    # odd e (10 = 9*1 + 1, 91 = 9*10 + 1) but c = 3 at even e
    # (30 = 9*3 + 3, 273 = 9*30 + 3), so only one phase at a time fits
    cfg = CharConfig(3)
    fit = detect_chain_limit((1, 1, 3, 10, 30, 91, 273), 0, cfg, 3)
    assert fit == ChainFit(Fraction(1, 8), 1, 2)
    # one equation in a phase is no evidence: (1, 1, 3, 10, 30) holds only
    # 10 = 9*1 + 1 at odd e
    assert detect_chain_limit((1, 1, 3, 10, 30), 0, cfg, 3) is None

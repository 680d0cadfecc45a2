from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsing.rationals import snap_interval


def ref_snap_interval(lo, hi, q, max_a, max_b):
    """The search over `Fraction` candidates that the integer one replaced."""
    candidates = []
    for a in range(max_a + 1):
        for b in range(1, max_b + 1):
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
    return Fraction(k, q**e), Fraction(k + 1, q**e), q, window, window


@st.composite
def loose_intervals(draw):
    """Any two small fractions in [-1, 2], empty and reversed intervals included."""
    fractions = st.builds(Fraction, st.integers(-30, 60), st.integers(1, 30))
    q = draw(st.sampled_from([2, 3, 5, 7]))
    return draw(fractions), draw(fractions), q, draw(st.integers(0, 2)), draw(st.integers(1, 2))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(grid_intervals(), loose_intervals()))
@example((Fraction(0), Fraction(1), 2, 1, 1))  # candidates 1/1 and 2/2, one value
@example((Fraction(1, 2), Fraction(1, 2), 3, 2, 2))  # empty
@example((Fraction(0), Fraction(0), 5, 0, 1))  # empty at 0
@example((Fraction(-1), Fraction(0), 2, 1, 2))  # 0 is a candidate
def test_snap_interval_matches_fraction_search(case):
    assert snap_interval(*case) == ref_snap_interval(*case)

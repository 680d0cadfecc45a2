"""Sparse multivariate polynomial arithmetic over the prime field F_p.

A polynomial is a finite map from exponent tuples to nonzero coefficients in
{1, ..., p-1}.  Exponents are Python ints, i.e. arbitrary precision, because
Frobenius powers multiply exponents by q^e which quickly exceeds machine
words.  Coefficients live in the prime field, so the Frobenius map f -> f^q
acts on exponents only (c^q = c for c in F_p).

Rings are described by a `Ring` value: the characteristic p, the number of
ring variables x0..x{n-1}, and an optional distinguished variable (``t`` or
``tau``) stored as the last exponent slot.

The canonical monomial order, used everywhere for deterministic output, is
graded reverse lexicographic.

`poly_parse` reads polynomial text by one token walk, which raises each
PolyParseError at the offset of the first bad token; `Poly.__str__` writes
it back, and is the one term formatter the CLI prints through.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, neg
from string import ascii_letters, digits
from typing import Dict, Optional, Tuple

from .errors import PolyParseError, ResourceLimitExceeded

Monomial = tuple[int, ...]

# Cap on the ring variables of a problem file or command line: every monomial
# is a tuple of that many exponents, so a huge count exhausts memory first.
MAX_VARS = 64
# Cap on the characteristic p and on q = p^gamma: p is checked by trial
# division up to sqrt(p), which at the cap is 46,341 divisions, and a list
# walk builds one digit slice per digit d < q.
MAX_P = 2**31 - 1
# Cap on the terms of one product of `PowerCache.power`, checked before the
# product as the product of its factors' term counts.  A power of a
# binomial over F_2 has 2^k terms, k the binary ones of its exponent, so
# (x0 + x1)^(10^400) would reach 2^476.
MAX_POWER_TERMS = 100_000
# Cap on the products that build one digit power f^d, d < p, of
# `PowerCache.power` from the largest digit power kept below it, checked
# before the first product.  The digit p - 1 takes up to p - 2 products, so
# a p near `MAX_P` would multiply for hours, and a p below 4099 never
# reaches the cap.
MAX_DIGIT_PRODUCTS = 4096


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _check_prime(p: int) -> None:
    """Raise ValueError for a p past `MAX_P`, before any division, or not prime."""
    if p > MAX_P:
        raise ValueError(f"p = {p} exceeds the cap of {MAX_P}")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")


@dataclass(frozen=True)
class CharConfig:
    """Characteristic data: a prime p and q = p^gamma."""

    p: int
    gamma: int = 1

    def __post_init__(self):
        _check_prime(self.p)
        if self.gamma < 1:
            raise ValueError(f"gamma = {self.gamma} must be positive")
        # p >= 2, so a gamma of MAX_P's bit length or more passes the cap
        # without p**gamma being formed
        if self.gamma >= MAX_P.bit_length() or self.p**self.gamma > MAX_P:
            raise ValueError(f"q = {self.p}^{self.gamma} exceeds the cap of {MAX_P}")

    @property
    def q(self) -> int:
        return self.p ** self.gamma


@dataclass(frozen=True)
class Ring:
    """Ambient ring descriptor: F_p[x0..x{nvars-1}] plus optional t or tau."""

    p: int
    nvars: int
    extra: Optional[str] = None

    def __post_init__(self):
        _check_prime(self.p)
        if self.nvars < 0:
            raise ValueError("nvars must be non-negative")
        if self.extra not in (None, "t", "tau"):
            raise ValueError(f"unsupported distinguished variable {self.extra!r}")

    @property
    def width(self) -> int:
        return self.nvars + (1 if self.extra else 0)

    def var_names(self) -> Tuple[str, ...]:
        names = tuple(f"x{i}" for i in range(self.nvars))
        if self.extra:
            names = names + (self.extra,)
        return names

    def base(self) -> "Ring":
        """The same ring without its distinguished variable."""
        return Ring(self.p, self.nvars)

    def with_extra(self, extra: str) -> "Ring":
        return Ring(self.p, self.nvars, extra)


def grevlex_key(m: Monomial):
    """Sort key: larger key means larger monomial in graded reverse lex."""
    return (sum(m), tuple(map(neg, reversed(m))))


class Poly:
    """Immutable sparse polynomial over F_p.

    `terms` maps exponent tuples to coefficients in {1, ..., p-1}; the zero
    polynomial has an empty map.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: Ring, terms: Dict[Monomial, int]):
        p = ring.p
        clean: Dict[Monomial, int] = {}
        for mono, c in terms.items():
            if len(mono) != ring.width:
                raise ValueError(
                    f"monomial {mono} has arity {len(mono)}, ring expects {ring.width}"
                )
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in monomial {mono}")
            c %= p
            if c:
                clean[tuple(mono)] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, ring: Ring, terms: Dict[Monomial, int]) -> "Poly":
        """Internal constructor for terms built by arithmetic on valid Polys.

        Reduces coefficients mod p and drops zeros like the public
        constructor, but trusts that every key is a tuple of `ring.width`
        non-negative exponents, so it skips the per-term arity and sign
        checks.
        """
        p = ring.p
        clean: Dict[Monomial, int] = {}
        for mono, c in terms.items():
            c %= p
            if c:
                clean[mono] = c
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "Poly":
        return Poly(ring, {})

    @staticmethod
    def const(ring: Ring, c: int) -> "Poly":
        return Poly(ring, {(0,) * ring.width: c})

    @staticmethod
    def monomial(ring: Ring, mono: Monomial) -> "Poly":
        return Poly(ring, {tuple(mono): 1})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in m) for m in self.terms)

    def total_degree(self) -> int:
        """Total degree over all slots; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def degree_in(self, slot: int) -> int:
        """Degree in one exponent slot; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m[slot] for m in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly._trusted(self.ring, out)

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        out: Dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return Poly._trusted(self.ring, out)

    def scale(self, c: int) -> "Poly":
        return Poly._trusted(self.ring, {m: cc * c for m, cc in self.terms.items()})

    def term_mul(self, mono: Monomial) -> "Poly":
        """Multiply by x^mono."""
        return Poly(self.ring, {tuple(map(add, m, mono)): c for m, c in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.const(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- distinguished-variable plumbing ------------------------------------

    def split_extra(self) -> Dict[int, "Poly"]:
        """Write f = sum_k c_k(x) * extra^k; returns {k: c_k} over the base ring.

        Requires a distinguished variable.  Only nonzero c_k appear.
        """
        if self.ring.extra is None:
            raise ValueError("polynomial has no distinguished variable")
        base = self.ring.base()
        out: Dict[int, Dict[Monomial, int]] = {}
        for m, c in self.terms.items():
            k = m[-1]
            out.setdefault(k, {})[m[:-1]] = c
        return {k: Poly._trusted(base, terms) for k, terms in sorted(out.items())}

    def lift_to(self, ring: Ring, extra_power: int = 0) -> "Poly":
        """Embed a base-ring polynomial into `ring`, times extra^extra_power."""
        if self.ring.extra is not None:
            raise ValueError("polynomial already has a distinguished variable")
        if ring.base() != self.ring:
            raise ValueError("target ring has a different base")
        if ring.extra is None:
            if extra_power:
                raise ValueError("target ring has no distinguished variable")
            return self
        if extra_power < 0:
            raise ValueError("negative power of the distinguished variable")
        return Poly._trusted(ring, {m + (extra_power,): c for m, c in self.terms.items()})

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ring, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        """Terms by descending grevlex: "0" for no terms, and a coefficient 1
        or an exponent 1 left out."""
        terms = self.terms
        if not terms:
            return "0"
        names = self.ring.var_names()
        parts = []
        for mono in sorted(terms, key=grevlex_key, reverse=True):
            c = terms[mono]
            factors = "*".join(
                name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e
            )
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append(factors)
            else:
                parts.append(f"{c}*{factors}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.ring.p}; {self})"


# -- parsing -------------------------------------------------------------------

_NAME_CHARS = ascii_letters + digits


def poly_parse(text: str, ring: Ring) -> Poly:
    """Parse the polynomial grammar into a canonical Poly.

    expression = term ('+' term)* ; term = integer ('*' factor)* | factor
    ('*' factor)* ; factor = variable ('^' natural)?.  Variables are
    x0..x{n-1} plus the ring's distinguished variable, if any; integers and
    names are ASCII.  Whitespace is insignificant.  Coefficients are reduced
    mod p.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial", 0)
    terms: Dict[Monomial, int] = {}
    idx = 0
    while True:
        idx, mono, coeff = _parse_term(tokens, idx, ring)
        terms[mono] = terms.get(mono, 0) + coeff
        if idx >= len(tokens):
            break
        kind, value, pos = tokens[idx]
        if kind != "+":
            raise PolyParseError(f"expected '+' but found {value!r}", pos)
        idx += 1
        if idx >= len(tokens):
            raise PolyParseError("dangling '+'", pos)
    # every monomial is a tuple of ring.width naturals
    return Poly._trusted(ring, terms)


def _natural(digit_text: str, pos: int) -> int:
    """The value of the ASCII digits at offset `pos`; `int` refuses more than its digit limit."""
    try:
        return int(digit_text)
    except ValueError:
        raise PolyParseError(f"integer of {len(digit_text)} digits is too long", pos) from None


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in "+*^":
            tokens.append((ch, ch, i))
            i += 1
        elif ch in digits:
            j = i + 1
            while j < n and text[j] in digits:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch in ascii_letters:
            j = i + 1
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch.isspace():
            i += 1
        else:
            raise PolyParseError(f"unexpected character {ch!r}", i)
    return tokens


def _var_index(name: str, ring: Ring, pos: int) -> int:
    if ring.extra is not None and name == ring.extra:
        return ring.nvars
    if name in ("t", "tau"):
        raise PolyParseError(f"variable {name!r} is not available in this ring", pos)
    if name.startswith("x") and name[1:].isdigit():
        i = _natural(name[1:], pos)
        if i < ring.nvars:
            return i
    raise PolyParseError(f"unknown variable {name!r}", pos)


def _parse_term(tokens, idx, ring: Ring):
    kind, value, pos = tokens[idx]
    coeff = 1
    expo = [0] * ring.width
    if kind == "int":
        coeff = _natural(value, pos)
        idx += 1
    elif kind == "name":
        idx = _parse_factor(tokens, idx, expo, ring)
    else:
        raise PolyParseError(f"expected a term but found {value!r}", pos)
    while idx < len(tokens) and tokens[idx][0] == "*":
        idx += 1
        if idx >= len(tokens) or tokens[idx][0] != "name":
            raise PolyParseError("expected a variable after '*'", tokens[idx - 1][2])
        idx = _parse_factor(tokens, idx, expo, ring)
    return idx, tuple(expo), coeff


def _parse_factor(tokens, idx, expo, ring: Ring) -> int:
    """Add the factor that starts at the name tokens[idx] to `expo`; the
    index of the token after it."""
    _, name, pos = tokens[idx]
    slot = _var_index(name, ring, pos)
    idx += 1
    if idx < len(tokens) and tokens[idx][0] == "^":
        if idx + 1 >= len(tokens) or tokens[idx + 1][0] != "int":
            raise PolyParseError("expected a natural number after '^'", tokens[idx][2])
        _, power, power_pos = tokens[idx + 1]
        expo[slot] += _natural(power, power_pos)
        return idx + 2
    expo[slot] += 1
    return idx


# -- Frobenius structure ----------------------------------------------------------

def check_char(ring: Ring, cfg: CharConfig, what: str = "polynomial") -> None:
    """Reject a config whose characteristic is not the ring's."""
    if ring.p != cfg.p:
        raise ValueError(f"characteristic mismatch between {what} and config")


def frobenius_power(f: Poly, e: int, cfg: CharConfig) -> Poly:
    """f^{q^e}.  Coefficients are fixed by Frobenius, exponents scale by q^e."""
    if e < 0:
        raise ValueError("e must be non-negative")
    check_char(f.ring, cfg)
    if e == 0:
        return f
    return _scale_exponents(f, cfg.q ** e)


def _scale_exponents(f: Poly, s: int) -> Poly:
    """f with every exponent times s: f^s when s is a power of the characteristic."""
    return Poly._trusted(f.ring, {tuple(v * s for v in m): c for m, c in f.terms.items()})


def frobenius_decompose(f: Poly, e: int, cfg: CharConfig) -> Dict[Monomial, Poly]:
    """Write f = sum_u a_u^{q^e} x^u with all exponents of u below q^e.

    Termwise: each exponent vector v splits as v = q^e * w + u by Euclidean
    division, contributing coeff * x^w to a_u.  Only nonzero a_u are returned.
    """
    if e < 1:
        raise ValueError("e must be positive")
    if f.ring.extra is not None:
        raise ValueError("frobenius_decompose expects a polynomial in the pure ring R")
    check_char(f.ring, cfg)
    s = cfg.q ** e
    buckets: Dict[Monomial, Dict[Monomial, int]] = {}
    for m, c in f.terms.items():
        w = tuple(v // s for v in m)
        u = tuple(v % s for v in m)
        bucket = buckets.setdefault(u, {})
        bucket[w] = bucket.get(w, 0) + c
    out = {}
    for u, terms in buckets.items():
        a = Poly._trusted(f.ring, terms)
        if not a.is_zero():
            out[u] = a
    return out


class PowerCache:
    """Powers of one polynomial f over F_p, keeping the digit powers f^d,
    d < p, that its calls ask for.

    f^n = (f^{n // p})^[p] f^{n mod p}: in characteristic p the p-th power
    only scales exponents by p, so f^n is built from the top base-p digit of
    n down, result <- result^[p] f^d, with one real product per nonzero
    digit d below the top, whose factor f^d has degree below p deg(f); no
    squaring of large powers ever happens.  A digit power is kept once
    built, f^0 and f^1 from the start, and a new one is built up from the
    largest kept digit below it, one product by f per step, so the powers
    between are never all held at once: a root graph's steps ask for f^d,
    d < q, one digit at a time.  A digit whose build would take more than
    `MAX_DIGIT_PRODUCTS` products raises `ResourceLimitExceeded` before the
    first, and before each product the product of its factors' term counts
    is checked against `MAX_POWER_TERMS`.
    """

    def __init__(self, f: Poly):
        self.f, self.p = f, f.ring.p
        self._digits = {0: Poly._trusted(f.ring, {(0,) * f.ring.width: 1}), 1: f}

    def power(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative power")
        p = self.p
        below = []  # the base-p digits of n below its top digit, lowest first
        while n >= p:
            n, d = divmod(n, p)
            below.append(d)
        result = self._digit(n)
        for d in reversed(below):
            result = _scale_exponents(result, p)
            if d:
                result = _capped_product(result, self._digit(d))
        return result

    def _digit(self, d: int) -> Poly:
        """f^d for a digit d < p."""
        digits = self._digits
        power = digits.get(d)
        if power is None:
            below = max(k for k in digits if k < d)
            if d - below > MAX_DIGIT_PRODUCTS:
                raise ResourceLimitExceeded(
                    f"the power f^{d} takes {d - below} products from f^{below},"
                    f" past the cap of {MAX_DIGIT_PRODUCTS}"
                )
            power = digits[below]
            for _ in range(d - below):
                power = _capped_product(power, self.f)
            digits[d] = power
        return power


def _capped_product(a: Poly, b: Poly) -> Poly:
    """a * b, or `ResourceLimitExceeded` before the product when it may pass
    `MAX_POWER_TERMS` terms."""
    bound = len(a.terms) * len(b.terms)
    if bound > MAX_POWER_TERMS:
        raise ResourceLimitExceeded(
            f"a power's product may reach {bound} terms, past the cap of {MAX_POWER_TERMS}"
        )
    return a * b

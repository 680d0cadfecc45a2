"""The token walk as it read every polynomial before a split reader was
added and later removed, and before the walk was made lean: the oracle that
`fsing.polyring.poly_parse` must match, term for term and error for error,
on ASCII text."""

from typing import Dict

from fsing.errors import PolyParseError
from fsing.polyring import Monomial, Poly, Ring


def poly_parse(text: str, ring: Ring) -> Poly:
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
    return Poly(ring, terms)


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+*^":
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise PolyParseError(f"unexpected character {ch!r}", i)
    return tokens


def _var_index(name: str, ring: Ring, pos: int) -> int:
    if ring.extra is not None and name == ring.extra:
        return ring.nvars
    if name in ("t", "tau"):
        raise PolyParseError(f"variable {name!r} is not available in this ring", pos)
    if name.startswith("x") and name[1:].isdigit():
        i = int(name[1:])
        if i < ring.nvars:
            return i
    raise PolyParseError(f"unknown variable {name!r}", pos)


def _parse_term(tokens, idx, ring: Ring):
    kind, value, pos = tokens[idx]
    coeff = 1
    expo = [0] * ring.width
    saw_factor = False
    if kind == "int":
        coeff = int(value)
        idx += 1
    elif kind == "name":
        expo[_var_index(value, ring, pos)] += 1
        idx = _parse_power(tokens, idx + 1, expo, ring, pos)
        saw_factor = True
    else:
        raise PolyParseError(f"expected a term but found {value!r}", pos)
    while idx < len(tokens) and tokens[idx][0] == "*":
        idx += 1
        if idx >= len(tokens) or tokens[idx][0] != "name":
            where = tokens[idx - 1][2]
            raise PolyParseError("expected a variable after '*'", where)
        kind, value, pos = tokens[idx]
        expo[_var_index(value, ring, pos)] += 1
        idx = _parse_power(tokens, idx + 1, expo, ring, pos)
        saw_factor = True
    if not saw_factor and kind != "int":
        raise PolyParseError("empty term", pos)
    return idx, tuple(expo), coeff


def _parse_power(tokens, idx, expo, ring: Ring, var_pos: int):
    if idx < len(tokens) and tokens[idx][0] == "^":
        if idx + 1 >= len(tokens) or tokens[idx + 1][0] != "int":
            raise PolyParseError("expected a natural number after '^'", tokens[idx][2])
        # the '^1' case already added 1; add the remainder
        n = int(tokens[idx + 1][1])
        name = tokens[idx - 1][1]
        expo[_var_index(name, ring, var_pos)] += n - 1
        return idx + 2
    return idx

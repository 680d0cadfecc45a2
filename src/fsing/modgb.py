"""Submodules of free modules R^l with decidable membership and equality.

The engine is Buchberger's algorithm in the module setting, using the
position-over-term extension of graded reverse lex: module terms (i, x^m)
compare by position first (index 0 largest), then by monomial.  Reduced
Groebner bases are unique for a fixed order, so submodule equality is
equality of reduced bases.

A `Submodule` keeps its generators and reduced basis as flat vectors, maps
(position, monomial) -> coefficient, and builds the public `VectorR` tuples
(`generators`, `reduced_basis()`) on first access.  Internal callers build
modules from flats (`Submodule._from_flats`), test membership on flats
(`_contains_flats`) and key memos by `_canonical()`, one frozenset of flat
items per reduced basis element, which `==` and `hash` use too.  The CLI
prints a module as `str` of each `reduced_basis()` element, whose entries
`Poly.__str__`, the one term formatter, writes.

The Buchberger loop takes S-pairs in the normal selection strategy: the pair
whose lcm is smallest in grevlex comes first, ties broken by the indices
(i, j) of the pair.  The key of a pair never changes once the pair exists, so
the queue is a heap of (key, i, j) entries, each pushed once when its pair is
created.  The loop applies the chain (lcm) criterion and one shortcut: the
S-pair of two monic terms (one coefficient times one module term) is 0, so
a popped pair of two terms is marked processed, for the chain criterion,
but not reduced.  The coprime product criterion is an ideal-theoretic
shortcut whose usual proof does not carry to module tails, and at this
problem scale it buys nothing.

The queue's one cap, `DEFAULT_PAIR_LIMIT` unless a `with pair_limit(n):`
block sets another, is held in a context variable, so it applies to one
thread or task and is restored when the block exits; `_buchberger`, the one
loop it caps, reads it.  A module uses the cap in force when its basis is
first computed; a basis already computed is never recomputed under another
cap.

`Submodule._reduced` computes each basis once, by `_basis`.  A lone
nonzero generator, made monic, is its own reduced basis (Cox-Little-O'Shea,
ch. 2 sec. 7): the root steps of a test ideal mostly start from one.  A
module generated by terms, the kind most scans hand over, has its minimal
terms as its reduced basis (ch. 2 sec. 4).  Neither runs a pair queue, so
`--limit-pairs` never trips on them.  Other lists go through
`_buchberger`, which hands its basis to `_reduce_basis` as (lead, element)
pairs, so no lead is computed twice.  The interreduction visits the leads by
(position, degree), ascending, and tests each only against the leads kept
before it, as no later lead can divide it; of equal leads the first is kept.
Only a survivor with more than one term is reduced against the others.

A span can be built as the module generated by its own reduced basis
(`Submodule._spanned`), with that basis already in place: later equality,
membership and sums compute no further basis.  The root steps and running
sums of `frobenius._RootGraph` are built this way, one `_basis` call each.

`prune_generators` (n Buchberger runs for n generators) serves only the
public `frobenius_root`, whose irredundant, degree-bounded generator list is
part of its contract.  It needs one forward pass.  A generator that is not in
the span of the others stays outside it when later generators are removed,
since that span only shrinks; so a pass that restarts after every removal
would keep exactly the same generators.
"""

from __future__ import annotations

import heapq
import operator
from contextvars import ContextVar
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import RankMismatchError, ResourceLimitExceeded
from .polyring import Monomial, Poly, Ring, grevlex_key

DEFAULT_PAIR_LIMIT = 200_000
_pair_limit: ContextVar[int] = ContextVar("pair_limit", default=DEFAULT_PAIR_LIMIT)


class pair_limit:
    """Cap the S-pair queue of every Buchberger run inside a `with` block.

    The cap is held per context (thread or task) and restored on exit; a
    cap below 1 raises `ValueError` on entry.  An instance is entered once.
    """

    __slots__ = ("limit", "_token")

    def __init__(self, limit: int):
        self.limit = limit

    def __enter__(self) -> None:
        if self.limit < 1:
            raise ValueError("pair limit must be positive")
        self._token = _pair_limit.set(self.limit)

    def __exit__(self, *exc_info) -> None:
        _pair_limit.reset(self._token)


ModTerm = tuple[int, Monomial]
FlatVec = dict[ModTerm, int]


def _term_key(t: ModTerm):
    pos, mono = t
    return (-pos, grevlex_key(mono))


class VectorR:
    """Fixed-length vector of polynomials, an element of R^l."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Poly]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("vectors must have positive length")
        ring = entries[0].ring
        for p in entries:
            if p.ring != ring:
                raise ValueError("vector entries live in different rings")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("VectorR is immutable")

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def ring(self) -> Ring:
        return self.entries[0].ring

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.entries)

    def total_degree(self) -> int:
        """Max entry degree; -1 for the zero vector."""
        return max(p.total_degree() for p in self.entries)

    def __add__(self, other: "VectorR") -> "VectorR":
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} vs {other.rank}")
        return VectorR(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "VectorR") -> "VectorR":
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} vs {other.rank}")
        return VectorR(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, c: int) -> "VectorR":
        return VectorR(tuple(p.scale(c) for p in self.entries))

    def poly_mul(self, f: Poly) -> "VectorR":
        return VectorR(tuple(p * f for p in self.entries))

    def __eq__(self, other) -> bool:
        return isinstance(other, VectorR) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __str__(self) -> str:
        if self.rank == 1:
            return str(self.entries[0])
        return "(" + ", ".join(str(p) for p in self.entries) + ")"

    def __repr__(self) -> str:
        return f"VectorR{str(self)}"


def _flatten(v: VectorR) -> FlatVec:
    out: FlatVec = {}
    for pos, poly in enumerate(v.entries):
        for mono, c in poly.terms.items():
            out[(pos, mono)] = c
    return out


def _unflatten(flat: FlatVec, rank: int, ring: Ring) -> VectorR:
    per_pos: List[Dict[Monomial, int]] = [{} for _ in range(rank)]
    for (pos, mono), c in flat.items():
        per_pos[pos][mono] = c
    return VectorR(tuple(Poly._trusted(ring, terms) for terms in per_pos))


def _lead(flat: FlatVec) -> ModTerm:
    if len(flat) == 1:
        return next(iter(flat))
    return max(flat, key=_term_key)


def _divides(m1: Monomial, m2: Monomial) -> bool:
    return all(map(operator.le, m1, m2))


def _mono_div(m2: Monomial, m1: Monomial) -> Monomial:
    return tuple(map(operator.sub, m2, m1))


def _mono_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(max, m1, m2))


def _shift(flat: FlatVec, mono: Monomial, c: int, p: int) -> FlatVec:
    out: FlatVec = {}
    for (pos, m), cc in flat.items():
        v = (cc * c) % p
        if v:
            out[(pos, tuple(map(operator.add, m, mono)))] = v
    return out


def _sub_into(target: FlatVec, other: FlatVec, p: int) -> None:
    for term, c in other.items():
        v = (target.get(term, 0) - c) % p
        if v:
            target[term] = v
        else:
            target.pop(term, None)


def _normal_form(flat: FlatVec, basis: List[Tuple[ModTerm, FlatVec]], p: int) -> FlatVec:
    """Full reduction of `flat` against monic `basis` elements."""
    remainder: FlatVec = {}
    work = dict(flat)
    while work:
        term = _lead(work)
        pos, mono = term
        c = work[term]
        for (gpos, gmono), gflat in basis:
            if gpos == pos and _divides(gmono, mono):
                _sub_into(work, _shift(gflat, _mono_div(mono, gmono), c, p), p)
                break
        else:
            remainder[term] = c
            del work[term]
    return remainder


def _make_monic(flat: FlatVec, p: int) -> Tuple[ModTerm, FlatVec]:
    """(lead, monic multiple of `flat`): scaling keeps the lead term."""
    lead = _lead(flat)
    inv = pow(flat[lead], -1, p)
    return lead, {t: (c * inv) % p for t, c in flat.items()}


def _buchberger(gens: List[FlatVec], p: int) -> List[Tuple[ModTerm, FlatVec]]:
    """A monic Groebner basis of the span of `gens`, as (lead, element) pairs,
    under the pair cap in force."""
    monic = [_make_monic(g, p) for g in gens if g]
    leads = [lead for lead, _ in monic]
    G = [g for _, g in monic]

    pairs: List[Tuple[tuple, int, int]] = []

    def push(i: int, j: int) -> None:
        lcm = _mono_lcm(leads[i][1], leads[j][1])
        heapq.heappush(pairs, (grevlex_key(lcm), i, j))

    for i in range(len(G)):
        for j in range(i):
            if leads[i][0] == leads[j][0]:
                push(j, i)

    processed = set()
    limit = _pair_limit.get()
    while pairs:
        if len(pairs) > limit:
            raise ResourceLimitExceeded(
                f"pair queue grew past the cap of {limit}; raise --limit-pairs"
            )
        _, i, j = heapq.heappop(pairs)
        processed.add((i, j))
        if len(G[i]) == 1 and len(G[j]) == 1:
            continue  # the S-pair of two monic terms is 0
        (pi, mi), (_, mj) = leads[i], leads[j]
        lcm = _mono_lcm(mi, mj)
        # chain criterion: some k with lead in the same position dividing the
        # lcm, both side pairs already handled
        if any(
            k not in (i, j) and leads[k][0] == pi and _divides(leads[k][1], lcm)
            and (min(i, k), max(i, k)) in processed and (min(j, k), max(j, k)) in processed
            for k in range(len(G))
        ):
            continue
        s = dict(_shift(G[i], _mono_div(lcm, mi), 1, p))
        _sub_into(s, _shift(G[j], _mono_div(lcm, mj), 1, p), p)
        nf = _normal_form(s, list(zip(leads, G)), p)
        if nf:
            new_lead, nf = _make_monic(nf, p)
            G.append(nf)
            leads.append(new_lead)
            n = len(G) - 1
            for k in range(n):
                if leads[k][0] == new_lead[0]:
                    push(k, n)
    return list(zip(leads, G))


def _reduce_basis(
    G: List[Tuple[ModTerm, FlatVec]], p: int
) -> List[Tuple[ModTerm, FlatVec]]:
    """Interreduce the monic basis G, (lead, element) pairs from `_buchberger`,
    to the unique reduced Groebner basis.

    Returns (lead, element) pairs, largest lead first.  Leads are visited by
    (position, degree), ascending, so a lead can be divided only by one kept
    before it; of equal leads the first is kept.  The survivors' leads divide
    no other survivor's lead, so reducing a survivor against the others
    keeps its monic lead term.
    """
    keep: List[Tuple[ModTerm, FlatVec]] = []
    for lead, g in sorted(G, key=lambda pair: (pair[0][0], sum(pair[0][1]))):
        pos, mono = lead
        if not any(kpos == pos and _divides(kmono, mono) for (kpos, kmono), _ in keep):
            keep.append((lead, g))
    # fully reduce each survivor against the other (unreduced) survivors; a
    # term survivor is already reduced, since no other survivor's lead
    # divides its one term
    reduced = [
        (lead, g if len(g) == 1 else _normal_form(g, keep[:i] + keep[i + 1 :], p))
        for i, (lead, g) in enumerate(keep)
    ]
    reduced.sort(key=lambda pair: _term_key(pair[0]), reverse=True)
    return reduced


def _basis(flats: List[FlatVec], p: int) -> List[Tuple[ModTerm, FlatVec]]:
    """The reduced basis of the span of `flats`, (lead, element) pairs,
    largest lead first.  One nonzero vector, made monic, is its own basis.
    A term list's basis is its minimal terms, monic: visited in plain tuple
    order (position, then exponents lexicographically), each term is tested
    only against the terms kept before it, since a term's divisors in its
    position come before it in that order; the survivors alone are then
    sorted by term order."""
    nonzero = [g for g in flats if g]
    if len(nonzero) == 1:
        return [_make_monic(nonzero[0], p)]
    for g in nonzero:
        if len(g) > 1:
            return _reduce_basis(_buchberger(flats, p), p)
    keep: List[ModTerm] = []
    for term in sorted({t for g in flats for t in g}):
        pos, mono = term
        for kpos, kmono in keep:
            if kpos == pos and _divides(kmono, mono):
                break
        else:
            keep.append(term)
    keep.sort(key=_term_key, reverse=True)
    return [(t, {t: 1}) for t in keep]


class Submodule:
    """Finitely generated submodule of R^l with an on-demand reduced basis."""

    def __init__(self, rank: int, generators: Iterable[VectorR], ring: Ring):
        if rank < 1:
            raise ValueError("rank must be positive")
        gens = []
        seen = set()
        for v in generators:
            if v.rank != rank:
                raise RankMismatchError(f"generator rank {v.rank}, module rank {rank}")
            if v.ring != ring:
                raise ValueError("generator ring mismatch")
            if not v.is_zero() and v not in seen:
                gens.append(v)
                seen.add(v)
        self._init(rank, ring, [_flatten(v) for v in gens])
        self._generators = tuple(gens)

    def _init(self, rank: int, ring: Ring, flats: List[FlatVec]) -> None:
        self.rank, self.ring = rank, ring
        self._flats = flats
        self._generators: Optional[Tuple[VectorR, ...]] = None
        self._flat_basis: Optional[List[Tuple[ModTerm, FlatVec]]] = None
        self._vectors: Optional[Tuple[VectorR, ...]] = None
        self._key: Optional[Tuple[frozenset, ...]] = None

    @classmethod
    def _from_flats(cls, rank: int, ring: Ring, flats: List[FlatVec]) -> "Submodule":
        """Internal constructor from flat vectors of R^rank, kept as given and
        never mutated.  Zero and repeated generators may stay: `_basis` skips
        a zero vector and a repeated term, `_buchberger` reduces a repeat to
        zero, and `_reduce_basis` drops a repeated lead."""
        out = cls.__new__(cls)
        out._init(rank, ring, flats)
        return out

    @classmethod
    def _spanned(cls, rank: int, ring: Ring, flats: List[FlatVec]) -> "Submodule":
        """The span of flat vectors of R^rank, generated by its own reduced
        basis, with that basis in place: equality, membership and sums on it
        compute no further basis.  A reduced basis holds no zero or repeated
        vector."""
        basis = _basis(flats, ring.p)
        out = cls._from_flats(rank, ring, [g for _, g in basis])
        out._flat_basis = basis
        return out

    @property
    def generators(self) -> Tuple[VectorR, ...]:
        if self._generators is None:
            self._generators = tuple(_unflatten(g, self.rank, self.ring) for g in self._flats)
        return self._generators

    @staticmethod
    def zero(rank: int, ring: Ring) -> "Submodule":
        return Submodule(rank, (), ring)

    @staticmethod
    def full(rank: int, ring: Ring) -> "Submodule":
        if rank < 1:
            raise ValueError("rank must be positive")
        units = [{(i, (0,) * ring.width): 1} for i in range(rank)]
        return Submodule._from_flats(rank, ring, units)

    def is_zero(self) -> bool:
        return not self._reduced()

    def _reduced(self) -> List[Tuple[ModTerm, FlatVec]]:
        """The flat reduced basis as (lead, element) pairs, largest lead first."""
        if self._flat_basis is None:
            self._flat_basis = _basis(self._flats, self.ring.p)
        return self._flat_basis

    def reduced_basis(self) -> Tuple[VectorR, ...]:
        if self._vectors is None:
            self._vectors = tuple(_unflatten(g, self.rank, self.ring) for _, g in self._reduced())
        return self._vectors

    def _canonical(self) -> Tuple[frozenset, ...]:
        """The reduced basis as a key, equal exactly for equal spans of one rank and ring."""
        if self._key is None:
            self._key = tuple(frozenset(g.items()) for _, g in self._reduced())
        return self._key

    def _contains_flats(self, flats: Iterable[FlatVec]) -> bool:
        """Whether every flat vector lies in the span."""
        basis, p = self._reduced(), self.ring.p
        return all(not _normal_form(g, basis, p) for g in flats)

    def normal_form(self, v: VectorR) -> VectorR:
        if v.rank != self.rank:
            raise RankMismatchError(f"vector rank {v.rank}, module rank {self.rank}")
        nf = _normal_form(_flatten(v), self._reduced(), self.ring.p)
        return _unflatten(nf, self.rank, self.ring)

    def max_generator_degree(self) -> int:
        """Max total degree over the stored generator list; -1 if zero."""
        if not self.generators:
            return -1
        return max(v.total_degree() for v in self.generators)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Submodule):
            return NotImplemented
        if self.rank != other.rank or self.ring != other.ring:
            return False
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash((self.rank, self.ring, self._canonical()))

    def __le__(self, other: "Submodule") -> bool:
        return contains_all(other, self.generators)

    def __repr__(self) -> str:
        gens = "; ".join(str(v) for v in self.generators) or "0"
        return f"Submodule(rank={self.rank}, <{gens}>)"


def contains(N: Submodule, v: VectorR) -> bool:
    return N.normal_form(v).is_zero()


def contains_all(N: Submodule, vectors: Iterable[VectorR]) -> bool:
    return all(contains(N, v) for v in vectors)


def prune_generators(N: Submodule) -> Submodule:
    """Drop generators lying in the span of the others.

    Keeps generator degrees intact (unlike replacing generators by a basis),
    which the Frobenius-root degree bound relies on.
    """
    gens = list(N.generators)
    i = 0
    while i < len(gens):
        rest = gens[:i] + gens[i + 1 :]
        M = Submodule(N.rank, rest, N.ring)
        if contains(M, gens[i]):
            gens = rest
        else:
            i += 1
    return Submodule(N.rank, gens, N.ring)

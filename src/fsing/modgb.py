"""Submodules of free modules R^l with decidable membership and equality.

The engine is Buchberger's algorithm in the module setting, using the
position-over-term extension of graded reverse lex: module terms (i, x^m)
compare by position first (index 0 largest), then by monomial.  Reduced
Groebner bases are unique for a fixed order, so submodule equality is
equality of reduced bases.

Internally a vector is flattened to a map (position, monomial) -> coefficient
for the division loop; the public representation is `VectorR`, a tuple of
`Poly` entries.

The Buchberger loop takes S-pairs in the normal selection strategy: the pair
whose lcm is smallest in grevlex comes first, ties broken by the indices
(i, j) of the pair.  The key of a pair never changes once the pair exists, so
the queue is a heap of (key, i, j) entries, each pushed once when its pair is
created.  The loop applies the chain (lcm) criterion only.  The coprime
product criterion is an ideal-theoretic shortcut whose usual proof does not
carry to module tails, and at this problem scale it buys nothing.

`prune_generators` needs one forward pass.  A generator that is not in the
span of the others stays outside it when later generators are removed, since
that span only shrinks; so a pass that restarts after every removal would
keep exactly the same generators.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import RankMismatchError, ResourceLimitExceeded
from .polyring import Monomial, Poly, Ring, grevlex_key

DEFAULT_PAIR_LIMIT = 200_000
_default_pair_limit = DEFAULT_PAIR_LIMIT


def set_default_pair_limit(limit: int) -> int:
    """Cap the S-pair queue for submodules built without an explicit limit.

    Returns the previous default, so that a caller can restore it.
    """
    global _default_pair_limit
    if limit < 1:
        raise ValueError("pair limit must be positive")
    previous, _default_pair_limit = _default_pair_limit, limit
    return previous


ModTerm = Tuple[int, Monomial]
FlatVec = Dict[ModTerm, int]


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
    return VectorR(tuple(Poly(ring, terms) for terms in per_pos))


def _lead(flat: FlatVec) -> ModTerm:
    return max(flat, key=_term_key)


def _divides(m1: Monomial, m2: Monomial) -> bool:
    return all(a <= b for a, b in zip(m1, m2))


def _mono_div(m2: Monomial, m1: Monomial) -> Monomial:
    return tuple(b - a for a, b in zip(m1, m2))


def _mono_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(max(a, b) for a, b in zip(m1, m2))


def _shift(flat: FlatVec, mono: Monomial, c: int, p: int) -> FlatVec:
    out: FlatVec = {}
    for (pos, m), cc in flat.items():
        v = (cc * c) % p
        if v:
            out[(pos, tuple(a + b for a, b in zip(m, mono)))] = v
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
        reduced = False
        for (gpos, gmono), gflat in basis:
            if gpos == pos and _divides(gmono, mono):
                _sub_into(work, _shift(gflat, _mono_div(mono, gmono), c, p), p)
                reduced = True
                break
        if not reduced:
            remainder[term] = c
            del work[term]
    return remainder


def _make_monic(flat: FlatVec, p: int) -> FlatVec:
    lc = flat[_lead(flat)]
    inv = pow(lc, -1, p)
    return {t: (c * inv) % p for t, c in flat.items()}


def _buchberger(gens: List[FlatVec], p: int, pair_limit: int) -> List[FlatVec]:
    G: List[FlatVec] = []
    leads: List[ModTerm] = []
    for g in gens:
        if g:
            mg = _make_monic(g, p)
            G.append(mg)
            leads.append(_lead(mg))

    pairs: List[Tuple[tuple, int, int]] = []

    def push(i: int, j: int) -> None:
        lcm = _mono_lcm(leads[i][1], leads[j][1])
        heapq.heappush(pairs, (grevlex_key(lcm), i, j))

    for i in range(len(G)):
        for j in range(i):
            if leads[i][0] == leads[j][0]:
                push(j, i)

    processed = set()
    while pairs:
        if len(pairs) > pair_limit:
            raise ResourceLimitExceeded(
                f"pair queue grew past the cap of {pair_limit}; raise --limit-pairs"
            )
        _, i, j = heapq.heappop(pairs)
        processed.add((i, j))
        pi, mi = leads[i]
        pj, mj = leads[j]
        lcm = _mono_lcm(mi, mj)
        # chain criterion: some k with lead in the same position dividing the
        # lcm, both side pairs already handled
        skip = False
        for k in range(len(G)):
            if k in (i, j) or leads[k][0] != pi:
                continue
            if _divides(leads[k][1], lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in processed and pjk in processed:
                    skip = True
                    break
        if skip:
            continue
        s = dict(_shift(G[i], _mono_div(lcm, mi), 1, p))
        _sub_into(s, _shift(G[j], _mono_div(lcm, mj), 1, p), p)
        nf = _normal_form(s, list(zip(leads, G)), p)
        if nf:
            nf = _make_monic(nf, p)
            new_lead = _lead(nf)
            G.append(nf)
            leads.append(new_lead)
            n = len(G) - 1
            for k in range(n):
                if leads[k][0] == new_lead[0]:
                    push(k, n)
    return G


def _reduce_basis(G: List[FlatVec], p: int) -> List[FlatVec]:
    """Interreduce to the unique reduced Groebner basis."""
    # drop elements whose lead is divisible by another element's lead
    keep: List[FlatVec] = []
    leads = [_lead(g) for g in G]
    for i, g in enumerate(G):
        pos_i, mono_i = leads[i]
        redundant = False
        for j in range(len(G)):
            if i == j:
                continue
            pos_j, mono_j = leads[j]
            if pos_j == pos_i and _divides(mono_j, mono_i):
                if mono_j != mono_i or j < i:
                    redundant = True
                    break
        if not redundant:
            keep.append(g)
    # fully reduce each survivor against the others
    reduced: List[FlatVec] = []
    for i, g in enumerate(keep):
        others = [(_lead(h), h) for j, h in enumerate(keep) if j != i]
        nf = _normal_form(g, others, p)
        if nf:
            reduced.append(_make_monic(nf, p))
    reduced.sort(key=lambda g: _term_key(_lead(g)), reverse=True)
    return reduced


class Submodule:
    """Finitely generated submodule of R^l with an on-demand reduced basis."""

    def __init__(
        self,
        rank: int,
        generators: Iterable[VectorR],
        ring: Ring,
        pair_limit: Optional[int] = None,
    ):
        if rank < 1:
            raise ValueError("rank must be positive")
        if pair_limit is None:
            pair_limit = _default_pair_limit
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
        self.rank = rank
        self.ring = ring
        self.generators: Tuple[VectorR, ...] = tuple(gens)
        self.pair_limit = pair_limit
        self._basis: Optional[Tuple[VectorR, ...]] = None
        self._flat_basis: List[Tuple[ModTerm, FlatVec]] = []

    @staticmethod
    def zero(rank: int, ring: Ring) -> "Submodule":
        return Submodule(rank, (), ring)

    @staticmethod
    def full(rank: int, ring: Ring) -> "Submodule":
        one = Poly.const(ring, 1)
        z = Poly.zero(ring)
        gens = [
            VectorR(tuple(one if i == j else z for j in range(rank))) for i in range(rank)
        ]
        return Submodule(rank, gens, ring)

    def is_zero(self) -> bool:
        return not self.reduced_basis()

    def reduced_basis(self) -> Tuple[VectorR, ...]:
        if self._basis is None:
            flats = [_flatten(v) for v in self.generators]
            G = _buchberger(flats, self.ring.p, self.pair_limit)
            G = _reduce_basis(G, self.ring.p)
            self._flat_basis = [(_lead(g), g) for g in G]
            self._basis = tuple(_unflatten(g, self.rank, self.ring) for g in G)
        return self._basis

    def normal_form(self, v: VectorR) -> VectorR:
        if v.rank != self.rank:
            raise RankMismatchError(f"vector rank {v.rank}, module rank {self.rank}")
        self.reduced_basis()
        nf = _normal_form(_flatten(v), self._flat_basis, self.ring.p)
        return _unflatten(nf, self.rank, self.ring)

    def max_generator_degree(self) -> int:
        """Max total degree over the stored generator list; -1 if zero."""
        if not self.generators:
            return -1
        return max(v.total_degree() for v in self.generators)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Submodule):
            return NotImplemented
        if self.rank != other.rank or self.ring != other.ring:
            return False
        return self.reduced_basis() == other.reduced_basis()

    def __hash__(self) -> int:
        return hash((self.rank, self.ring, self.reduced_basis()))

    def __le__(self, other: "Submodule") -> bool:
        return contains_all(other, self.generators)

    def __repr__(self) -> str:
        gens = "; ".join(str(v) for v in self.generators) or "0"
        return f"Submodule(rank={self.rank}, <{gens}>)"


def groebner_basis(N: Submodule) -> Submodule:
    """Force the reduced basis computation; the span is unchanged."""
    N.reduced_basis()
    return N


def contains(N: Submodule, v: VectorR) -> bool:
    return N.normal_form(v).is_zero()


def contains_all(N: Submodule, vectors: Iterable[VectorR]) -> bool:
    return all(contains(N, v) for v in vectors)


def equals(N1: Submodule, N2: Submodule) -> bool:
    if N1.rank != N2.rank:
        raise RankMismatchError(f"rank {N1.rank} vs {N2.rank}")
    return N1 == N2


def module_sum(N1: Submodule, N2: Submodule) -> Submodule:
    if N1.rank != N2.rank:
        raise RankMismatchError(f"rank {N1.rank} vs {N2.rank}")
    if N1.ring != N2.ring:
        raise ValueError("ring mismatch")
    return Submodule(
        N1.rank,
        N1.generators + N2.generators,
        N1.ring,
        pair_limit=max(N1.pair_limit, N2.pair_limit),
    )


def prune_generators(N: Submodule) -> Submodule:
    """Drop generators lying in the span of the others.

    Keeps generator degrees intact (unlike replacing generators by a basis),
    which the Frobenius-root degree bound relies on.
    """
    gens = list(N.generators)
    i = 0
    while i < len(gens):
        rest = gens[:i] + gens[i + 1 :]
        M = Submodule(N.rank, rest, N.ring, pair_limit=N.pair_limit)
        if contains(M, gens[i]):
            gens = rest
        else:
            i += 1
    return Submodule(N.rank, gens, N.ring, pair_limit=N.pair_limit)

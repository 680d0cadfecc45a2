import dataclasses
import json
import random
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsing import frobenius, listmod, modgb
from fsing.bfun import b_function, graph_generator
from fsing.errors import InternalConsistencyError, ProblemFormatError, ResourceLimitExceeded
from fsing.frobenius import _root_generators, _RootGraph, _scalar, frobenius_root
from fsing.listmod import (
    MatrixList,
    SeReport,
    TMatrix,
    _digit_slices,
    _twisted_power,
    _validate_family,
    assemble_A,
    estimate_jumping_numbers,
    h_expand,
    list_test_module,
    _RootWalk,
    load_problem,
    load_problem_file,
    ltm_scan,
    s_set,
    s_set_simple,
    simple_list_I,
    simple_list_tau,
    simple_tau_scan,
)
from fsing.modgb import Submodule, VectorR
from fsing.polyring import CharConfig, Poly, Ring, frobenius_power, poly_parse
from fsing.rationals import GridRational
from fsing.testideal import f_jumping_exponents, tau_f, tau_f_stable

from matrix_lists import decompose
from test_frobenius import spy_root_steps


def tmat(cfg, nvars, rows):
    ring = Ring(cfg.p, nvars, "t")
    return TMatrix(tuple(tuple(poly_parse(c, ring) for c in row) for row in rows), cfg)


def tame_matrix(cfg=CharConfig(3)):
    return tmat(cfg, 0, [["t"]])


def wild_matrix():
    return tmat(CharConfig(2), 0, [["t", "1"], ["0", "t"]])


class TestAssembleDecompose:
    def test_constant_entry(self):
        cfg = CharConfig(3)
        ring = Ring(3, 0)
        ml = MatrixList(1, cfg, ring, {(0, 0): ((Poly.const(ring, 2),),)})
        assert str(assemble_A(ml).mat[0][0]) == "2"

    def test_tame_generator(self):
        cfg = CharConfig(3)
        ring = Ring(3, 0)
        ml = MatrixList(1, cfg, ring, {(0, 1): ((Poly.const(ring, 1),),)})
        assert str(assemble_A(ml).mat[0][0]) == "t"

    def test_decompose_graph_of_square(self):
        cfg = CharConfig(3)
        A = tmat(cfg, 1, [["x0^4 + x0^2*t + t^2"]])
        ml = decompose(A)
        assert sorted(ml.entries) == [(0, 0), (0, 1), (0, 2)]
        assert str(ml.entries[(0, 0)][0][0]) == "x0^4"
        assert str(ml.entries[(0, 1)][0][0]) == "x0^2"
        assert str(ml.entries[(0, 2)][0][0]) == "1"

    def test_decompose_t_to_the_q(self):
        cfg = CharConfig(2)
        ml = decompose(tmat(cfg, 0, [["t^2"]]))
        assert sorted(ml.entries) == [(1, 0)]

    def test_decompose_zero(self):
        cfg = CharConfig(2)
        assert decompose(tmat(cfg, 0, [["0"]])).is_zero()

    def test_roundtrip(self):
        cfg = CharConfig(3)
        A = tmat(cfg, 1, [["x0 + x0*t^4 + 2*t^7"]])
        assert assemble_A(decompose(A)).mat == A.mat

    def test_out_of_range_index_rejected(self):
        cfg = CharConfig(2)
        ring = Ring(2, 0)
        with pytest.raises(ValueError):
            MatrixList(1, cfg, ring, {(0, 2): ((Poly.const(ring, 1),),)})


class TestHExpand:
    def test_tame_levels(self):
        cfg = CharConfig(3)
        A = tame_matrix(cfg)
        fam1 = h_expand(A, 1, cfg)
        assert sorted(fam1.table) == [1]
        assert str(fam1.table[1][0][0]) == "1"
        fam2 = h_expand(A, 2, cfg)
        assert sorted(fam2.table) == [4]
        assert str(fam2.table[4][0][0]) == "1"

    def test_constant_matrix(self):
        cfg = CharConfig(2)
        A = tmat(cfg, 1, [["x0"]])
        fam = h_expand(A, 3, cfg)
        # x0^(1+2+4) with no t present
        assert sorted(fam.table) == [0]
        assert str(fam.table[0][0][0]) == "x0^7"

    def test_wild_level_one(self):
        cfg = CharConfig(2)
        fam = h_expand(wild_matrix(), 1, cfg)
        as_strs = {
            n: [[str(x) for x in row] for row in mat]
            for n, mat in fam.table.items()
        }
        assert as_strs == {
            0: [["0", "1"], ["0", "0"]],
            1: [["1", "0"], ["0", "1"]],
        }

    def test_tau_bound_tame(self):
        cfg = CharConfig(3)
        fam = h_expand(tame_matrix(cfg), 2, cfg)
        assert fam.tau_bound == 0


def coefficient_frobenius(mat, e, cfg):
    """Entrywise q^e power of the R-coefficients, tau exponents kept."""
    out = []
    for row in mat:
        new_row = []
        for entry in row:
            acc = Poly.zero(entry.ring)
            for k, c in entry.split_extra().items():
                acc = acc + frobenius_power(c, e, cfg).lift_to(entry.ring, k)
            new_row.append(acc)
        out.append(tuple(new_row))
    return tuple(out)


def mat_mul(a, b):
    l = len(a)
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(l)), Poly.zero(a[0][0].ring))
            for j in range(l)
        )
        for i in range(l)
    )


def h_recursion_check(A, e, cfg):
    """H^e from H^(e-1) and H^1 by splitting the twisted product once."""
    q = cfg.q
    l = A.l
    fam_e = h_expand(A, e, cfg)
    fam_p = h_expand(A, e - 1, cfg)
    fam_1 = h_expand(A, 1, cfg)
    tau_ring = A.ring.base().with_extra("tau")
    zero_mat = tuple((Poly.zero(tau_ring),) * l for _ in range(l))

    frob1 = {
        n: coefficient_frobenius(mat, e - 1, cfg) for n, mat in fam_1.table.items()
    }
    # B[k, beta] matrices over R from H^(e-1)_beta = sum_k B tau^k
    coeffs = {}
    for beta, mat in fam_p.table.items():
        for i in range(l):
            for j in range(l):
                for k, c in mat[i][j].split_extra().items():
                    key = (k, beta)
                    if key not in coeffs:
                        z = Poly.zero(A.ring.base())
                        coeffs[key] = [[z] * l for _ in range(l)]
                    coeffs[key][i][j] = coeffs[key][i][j] + c

    j1_max = fam_p.tau_bound + 1
    for beta in range(q ** (e - 1)):
        for j0 in range(q):
            acc = zero_mat
            for j1 in range(j1_max + 1):
                for n in range(q):
                    k = j0 + j1 * q - n
                    if (k, beta) not in coeffs or n not in frob1:
                        continue
                    b_lift = tuple(
                        tuple(x.lift_to(tau_ring, j1) for x in row)
                        for row in coeffs[(k, beta)]
                    )
                    term = mat_mul(frob1[n], b_lift)
                    acc = tuple(
                        tuple(x + y for x, y in zip(ra, rb))
                        for ra, rb in zip(acc, term)
                    )
            want = fam_e.table.get(beta + j0 * q ** (e - 1), zero_mat)
            assert acc == want


def random_poly(rng, ring, max_deg):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = [0] * ring.width
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(ring.width)] += 1
        terms[tuple(mono)] = rng.randint(1, ring.p - 1)
    return Poly(ring, terms)


def random_tmatrix(rng, p, l, deg_t):
    cfg = CharConfig(p)
    ring = Ring(p, 1, "t")
    slot = ring.width - 1
    mat = []
    for _ in range(l):
        row = []
        for _ in range(l):
            f = random_poly(rng, ring, 4)
            while f.degree_in(slot) > deg_t:
                f = random_poly(rng, ring, 4)
            row.append(f)
        mat.append(tuple(row))
    return TMatrix(tuple(mat), cfg), cfg


def test_h_recursion_cross_check_random():
    rng = random.Random(17)
    for _ in range(12):
        p = rng.choice([2, 3])
        l = rng.randint(1, 2)
        A, cfg = random_tmatrix(rng, p, l, 4)
        e = rng.randint(2, 3)
        h_recursion_check(A, e, cfg)


def test_h_recursion_wild():
    h_recursion_check(wild_matrix(), 3, CharConfig(2))


class TestListTestModule:
    def test_tame_values_e0(self):
        cfg = CharConfig(3)
        ml = decompose(tame_matrix(cfg))
        scan = ltm_scan(ml, 0, cfg)
        ring = Ring(3, 0)
        assert scan[0].is_zero()
        assert scan[1] == Submodule.full(1, ring)
        assert scan[2] == Submodule.full(1, ring)

    def test_zero_list(self):
        # a zero list takes the general path: its H-families are empty
        cfg = CharConfig(2)
        ring = Ring(2, 0)
        for l in (1, 2):
            ml = MatrixList(l, cfg, ring, {})
            for e in range(2):
                scan = ltm_scan(ml, e, cfg)
                assert len(scan) == cfg.q ** (e + 1)
                assert all(m.is_zero() and m.rank == l for m in scan)
            assert s_set(ml, 1, cfg).jumps == ()
            report = estimate_jumping_numbers(ml, cfg, 2)
            assert sorted(report.s_sets) == [0, 1, 2]
            assert all(rep.jumps == () for rep in report.s_sets.values())
            assert report.chains == () and report.estimates == ()

    def test_grid_point_lookup(self):
        cfg = CharConfig(3)
        ml = decompose(tame_matrix(cfg))
        lam = GridRational(2, 0, cfg)
        assert list_test_module(ml, lam, 0, cfg) == Submodule.full(1, Ring(3, 0))

    def test_reduces_to_simple_list(self):
        # l = 1, all k = 0: the module equals the simple list test ideal,
        # embedded in the tau-power 0 slice of the ambient module
        rng = random.Random(23)
        for p in (2, 3):
            cfg = CharConfig(p)
            ring = Ring(p, 1)
            r = [random_poly(rng, ring, 2) for _ in range(cfg.q)]
            entries = {
                (0, n): ((r[n],),) for n in range(cfg.q) if not r[n].is_zero()
            }
            ml = MatrixList(1, cfg, ring, entries)
            rank = assemble_A(ml).tdeg // (cfg.q - 1) + 1
            for e in range(2):
                mods = ltm_scan(ml, e, cfg)
                simple = simple_tau_scan(r, e, cfg)
                for got, want in zip(mods, simple):
                    embedded = Submodule(
                        rank,
                        tuple(
                            VectorR(
                                v.entries + (Poly.zero(ring),) * (rank - 1)
                            )
                            for v in want.generators
                        ),
                        ring,
                    )
                    assert got == embedded
                assert s_set(ml, e, cfg).values() == s_set_simple(r, e, cfg).values()

    def test_partial_sums_match_full_scan(self):
        # list_test_module and simple_list_tau read one grid point off the breaks
        cfg = CharConfig(3)
        ring = Ring(3, 2)
        f = poly_parse("x0^2 + x1^3", ring)
        r = [f ** (cfg.q - 1 - n) for n in range(cfg.q)]
        ml = decompose(graph_generator(f, cfg))
        wild = decompose(wild_matrix())
        for e in range(3):
            for mlist in (ml, wild):
                scan = ltm_scan(mlist, e, mlist.cfg)
                for m, want in enumerate(scan, start=1):
                    lam = GridRational(m, e, mlist.cfg)
                    assert list_test_module(mlist, lam, e, mlist.cfg) == want
            for m, want in enumerate(simple_tau_scan(r, e, cfg), start=1):
                assert simple_list_tau(r, GridRational(m, e, cfg), e, cfg) == want

    def test_chain_in_e(self):
        cfg = CharConfig(2)
        ml = decompose(wild_matrix())
        for m in range(1, 2 + 1):
            for e in range(3):
                high = list_test_module(
                    ml, GridRational(m * cfg.q**e, e, cfg), e, cfg
                )
                low = list_test_module(ml, GridRational(m, 0, cfg), 0, cfg)
                assert high <= low


class TestSSet:
    def test_tame(self):
        cfg = CharConfig(3)
        ml = decompose(tame_matrix(cfg))
        want = [Fraction(1, 3), Fraction(4, 9), Fraction(13, 27)]
        for e in range(3):
            assert [g.value for g in s_set(ml, e, cfg).jumps] == [want[e]]

    def test_wild(self):
        cfg = CharConfig(2)
        ml = decompose(wild_matrix())
        got = {e: [g.value for g in s_set(ml, e, cfg).jumps] for e in range(4)}
        assert got == {
            0: [Fraction(1, 2)],
            1: [Fraction(1, 4), Fraction(3, 4)],
            2: [Fraction(3, 8), Fraction(7, 8)],
            3: [Fraction(7, 16), Fraction(15, 16)],
        }


class TestEstimate:
    def test_tame_chain(self):
        cfg = CharConfig(3)
        ml = decompose(tame_matrix(cfg))
        report = estimate_jumping_numbers(ml, cfg, 4)
        assert report.estimates == (Fraction(1, 2),)
        (chain,) = report.chains
        assert chain.resolved
        assert chain.numerators == (1, 4, 13, 40, 121)

    def test_wild_chains(self):
        cfg = CharConfig(2)
        ml = decompose(wild_matrix())
        report = estimate_jumping_numbers(ml, cfg, 6)
        assert report.estimates == (Fraction(1, 2), Fraction(1))
        assert all(c.resolved for c in report.chains)

    def test_empty(self):
        cfg = CharConfig(2)
        ml = MatrixList(1, cfg, Ring(2, 0), {})
        report = estimate_jumping_numbers(ml, cfg, 3)
        assert report.estimates == ()
        assert report.chains == ()

    def test_e_max_guard(self):
        cfg = CharConfig(2)
        ml = MatrixList(1, cfg, Ring(2, 0), {})
        with pytest.raises(ValueError):
            estimate_jumping_numbers(ml, cfg, 1)


class TestProblemJson:
    def test_matrix_form(self):
        obj = {
            "p": 3,
            "gamma": 1,
            "num_vars": 1,
            "rank": 1,
            "matrix": [["x0^2 + t"]],
        }
        problem, cfg = load_problem(obj)
        assert isinstance(problem, TMatrix)
        assert cfg.q == 3

    def test_list_form(self):
        obj = {
            "p": 2,
            "gamma": 1,
            "num_vars": 1,
            "rank": 2,
            "list": [
                {"k": 0, "n": 1, "matrix": [["x0", "0"], ["0", "1"]]},
            ],
        }
        problem, _ = load_problem(obj)
        assert isinstance(problem, MatrixList)
        assert sorted(problem.entries) == [(0, 1)]

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda o: o.pop("p"),
            lambda o: o.update(p="3"),
            lambda o: o.update(p=6),
            lambda o: o.pop("matrix"),
            lambda o: o.update(list=[]),
            lambda o: o.update(matrix=[["x0"], ["x0"]]),
            lambda o: o.update(rank=0),
        ],
    )
    def test_malformed(self, mutation):
        obj = {
            "p": 3,
            "gamma": 1,
            "num_vars": 1,
            "rank": 1,
            "matrix": [["x0"]],
        }
        mutation(obj)
        with pytest.raises(ProblemFormatError):
            load_problem(obj)

    def test_duplicate_list_index(self):
        obj = {
            "p": 2,
            "gamma": 1,
            "num_vars": 0,
            "rank": 1,
            "list": [
                {"k": 0, "n": 0, "matrix": [["1"]]},
                {"k": 0, "n": 0, "matrix": [["1"]]},
            ],
        }
        with pytest.raises(ProblemFormatError):
            load_problem(obj)

    CUSP_FILE = '{"p": 3, "gamma": 1, "num_vars": 2, "rank": 1, "matrix": [["x0^2 + t"]]}'

    def test_file_with_a_byte_that_is_not_utf8(self, tmp_path):
        # a decoding failure is a malformed file, not a bare ValueError
        path = tmp_path / "latin1.json"
        path.write_bytes(self.CUSP_FILE.replace("t", "t\xff", 1).encode("latin-1"))
        with pytest.raises(ProblemFormatError, match="not valid JSON: 'utf-8' codec"):
            load_problem_file(str(path))

    def test_file_with_a_number_past_the_digit_limit(self, tmp_path):
        # json.loads refuses an integer of more than 4300 digits with a bare
        # ValueError, outside JSONDecodeError
        path = tmp_path / "long.json"
        path.write_text(self.CUSP_FILE.replace('"num_vars": 2', '"num_vars": ' + "9" * 5000))
        with pytest.raises(ProblemFormatError, match="number too long to read"):
            load_problem_file(str(path))

    def test_rank_cap(self):
        # a few bytes ask for rank^2 cells; the cap is checked before them
        obj = {"p": 2, "gamma": 1, "num_vars": 0, "rank": listmod.MAX_RANK, "list": []}
        problem, _ = load_problem(obj)
        assert problem.l == listmod.MAX_RANK == 64
        obj["rank"] += 1
        with pytest.raises(ProblemFormatError, match="field 'rank' exceeds the cap of 64"):
            load_problem(obj)

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32-be"])
    def test_file_is_read_as_json_bytes(self, tmp_path, encoding):
        # JSON's own encoding detection, whatever the locale: a UTF-8 byte
        # order mark is accepted, as are UTF-16 and UTF-32
        path = tmp_path / f"{encoding}.json"
        path.write_bytes(self.CUSP_FILE.encode(encoding))
        problem, cfg = load_problem_file(str(path))
        assert (problem, cfg) == load_problem(json.loads(self.CUSP_FILE))


# -- the H-family check ---------------------------------------------------------


def cusp_graph():
    cfg = CharConfig(3)
    return graph_generator(poly_parse("x0^2 + x1^3", Ring(3, 2)), cfg), cfg


def family_and_product(A, e, cfg):
    return h_expand(A, e, cfg), _twisted_power(A, e, cfg)


def with_entry(fam, n, i, j, entry):
    mat = [list(row) for row in fam.table[n]]
    mat[i][j] = entry
    table = dict(fam.table)
    table[n] = tuple(tuple(row) for row in mat)
    return dataclasses.replace(fam, table=table)


def first_entry(fam, pred=lambda mono: True):
    """(n, i, j, entry, mono) of the first nonzero term matching pred."""
    for n, mat in sorted(fam.table.items()):
        for i, row in enumerate(mat):
            for j, entry in enumerate(row):
                for mono in sorted(entry.terms):
                    if pred(mono):
                        return n, i, j, entry, mono
    raise AssertionError("no matching term")


class TestValidateFamily:
    def test_changed_coefficient(self):
        A, cfg = cusp_graph()
        fam, prod = family_and_product(A, 2, cfg)
        n, i, j, entry, mono = first_entry(fam)
        terms = dict(entry.terms)
        terms[mono] = terms[mono] % 2 + 1  # 1 <-> 2 in F_3
        bad = with_entry(fam, n, i, j, Poly(entry.ring, terms))
        with pytest.raises(InternalConsistencyError, match="reassembly of H\\^2"):
            _validate_family(bad, A, prod)

    def test_moved_k(self):
        A, cfg = cusp_graph()
        fam, prod = family_and_product(A, 2, cfg)
        assert fam.tau_bound == 1
        n, i, j, entry, mono = first_entry(fam, lambda m: m[-1] == 0)
        moved = mono[:-1] + (1,)
        terms = dict(entry.terms)
        c = terms.pop(mono)
        terms[moved] = terms.get(moved, 0) + c
        bad = with_entry(fam, n, i, j, Poly(entry.ring, terms))
        with pytest.raises(InternalConsistencyError, match="does not reproduce A\\^1"):
            _validate_family(bad, A, prod)

    def test_above_tau_bound(self):
        A, cfg = cusp_graph()
        fam, prod = family_and_product(A, 2, cfg)
        n, i, j, entry, mono = first_entry(fam)
        high = mono[:-1] + (fam.tau_bound + 1,)
        bad = with_entry(fam, n, i, j, entry + Poly.monomial(entry.ring, high))
        with pytest.raises(InternalConsistencyError, match="exceeds the tau-degree bound 1"):
            _validate_family(bad, A, prod)

    def test_dropped_residue(self):
        A, cfg = cusp_graph()
        fam, prod = family_and_product(A, 2, cfg)
        table = dict(fam.table)
        del table[max(table)]
        with pytest.raises(InternalConsistencyError, match="reassembly"):
            _validate_family(dataclasses.replace(fam, table=table), A, prod)

    def test_reassembly_sums_in_f_p(self):
        # x0 tau at residue 1 and x0 tau^0 at residue 1 + q both land on
        # x0 t^4; the check compares their sum in F_3 with A^0 = A
        cfg = CharConfig(3)
        A = tmat(cfg, 1, [["x0^2 + x0*t^4"]])
        fam, prod = family_and_product(A, 1, cfg)
        ring = fam.table[1][0][0].ring
        table = dict(fam.table)
        table[1] = ((poly_parse("2*x0*tau", ring),),)
        table[4] = ((poly_parse("2*x0", ring),),)
        _validate_family(dataclasses.replace(fam, table=table), A, prod)
        table[4] = ((poly_parse("x0", ring),),)
        with pytest.raises(InternalConsistencyError, match="reassembly"):
            _validate_family(dataclasses.replace(fam, table=table), A, prod)

    @pytest.mark.parametrize("p,gamma,seed", [(2, 1, 3), (3, 1, 5), (2, 2, 7)])
    def test_rank_two_and_q4_pass(self, p, gamma, seed):
        rng = random.Random(seed)
        cfg = CharConfig(p, gamma)
        for l in (1, 2):
            for _ in range(4):
                A, _ = random_tmatrix(rng, p, l, 3)
                A = TMatrix(A.mat, cfg)
                for e in (1, 2):
                    fam, prod = family_and_product(A, e, cfg)
                    _validate_family(fam, A, prod)


# -- scan oracles ------------------------------------------------------------------


def oracle_columns(mat, l, rank, ring):
    cols = []
    for j in range(l):
        coords = [Poly.zero(ring)] * rank
        for i in range(l):
            for mono, c in mat[i][j].terms.items():
                slot = mono[-1] * l + i
                coords[slot] = coords[slot] + Poly(ring, {mono[:-1]: c})
        if any(not x.is_zero() for x in coords):
            cols.append(VectorR(coords))
    return cols


def reference_scan(ml, e, cfg):
    """ltm_scan from a fresh h_expand(A, e+1) and pruned public roots."""
    A = assemble_A(ml)
    grid = cfg.q ** (e + 1)
    rank = ml.l * (A.tdeg // (cfg.q - 1) + 1)
    ring = ml.base_ring
    cum = Submodule.zero(rank, ring)
    if A.is_zero():
        return [cum] * grid
    fam = h_expand(A, e + 1, cfg)
    out = []
    for n in range(grid):
        if n in fam.table:
            cols = oracle_columns(fam.table[n], ml.l, rank, ring)
            if cols:
                root = frobenius_root(Submodule(rank, cols, ring), e + 1, cfg)
                cum = Submodule(cum.rank, cum.generators + root.generators, cum.ring)
        out.append(cum)
    return out


CONFIGS = [CharConfig(2), CharConfig(3), CharConfig(2, 2)]


@st.composite
def matrix_lists(draw):
    cfg = draw(st.sampled_from(CONFIGS))
    l = draw(st.integers(1, 2))
    ring = Ring(cfg.p, 1)
    nonzero = st.dictionaries(
        st.tuples(st.integers(0, 2)), st.integers(1, cfg.p - 1), min_size=1, max_size=2
    ).map(lambda terms: Poly(ring, terms))
    cells = st.one_of(nonzero, st.just(Poly.zero(ring)))
    mats = st.tuples(*[st.tuples(*[cells] * l)] * l)
    keys = st.tuples(st.integers(0, 1), st.integers(0, cfg.q - 1))
    entries = draw(st.dictionaries(keys, mats, min_size=1, max_size=2))
    return MatrixList(l, cfg, ring, entries)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(matrix_lists(), st.integers(0, 2))
def test_ltm_scan_matches_reference(ml, e):
    got = ltm_scan(ml, e, ml.cfg)
    want = reference_scan(ml, e, ml.cfg)
    assert len(got) == len(want)
    for m, (a, b) in enumerate(zip(got, want), start=1):
        assert a == b, f"module {m}/{ml.cfg.q ** (e + 1)}"


@settings(derandomize=True, max_examples=20, deadline=None)
@given(matrix_lists())
def test_shared_chain_matches_s_set(ml):
    cfg = ml.cfg
    report = estimate_jumping_numbers(ml, cfg, 2)
    for e in range(3):
        assert report.s_sets[e] == s_set(ml, e, cfg)


# -- the digit-wise walk ---------------------------------------------------------


def legacy_column_vectors(mat, l, ambient_rank, ring):
    """Columns of a matrix over R[tau] in R^{l(N+1)}, coordinate taupower * l + slot."""
    zero = Poly.zero(ring)
    out = []
    for j in range(l):
        coords = [zero] * ambient_rank
        for i in range(l):
            for k, coeff in mat[i][j].split_extra().items():
                coords[k * l + i] = coords[k * l + i] + coeff
        v = VectorR(coords)
        if not v.is_zero():
            out.append(v)
    return out


def legacy_scan(ml, e, cfg):
    """The scan the walk replaced: deep roots of the column spans of H^{e+1}_n."""
    A = assemble_A(ml)
    fam = h_expand(A, e + 1, cfg)
    rank = A.l * (fam.tau_bound + 1)
    ring = A.ring.base()

    def piece(n):
        mat = fam.matrix(n)
        if mat is None:
            return Submodule.zero(rank, ring)
        cols = legacy_column_vectors(mat, A.l, rank, ring)
        one = _scalar(Poly.const(ring, 1), rank)
        flats = _root_generators(Submodule(rank, tuple(cols), ring), fam.e, fam.cfg, one)
        return Submodule._from_flats(rank, ring, flats)

    return fold_scan(map(piece, range(cfg.q**fam.e)), Submodule.zero(rank, ring))


def fold_scan(pieces, zero):
    """Running sums zero + pieces[0] + ... + pieces[i], one per piece."""
    out, cum = [], zero
    for piece in pieces:
        if not piece <= cum:
            cum = Submodule(cum.rank, cum.generators + piece.generators, cum.ring)
        out.append(cum)
    return out


def jump_report(scan, e, cfg):
    """S_e read point by point: m/q^{e+1} is a jump when scan[m] != scan[m-1]."""
    jumps = (GridRational(m, e, cfg) for m in range(1, len(scan)) if scan[m] != scan[m - 1])
    return SeReport(e, tuple(jumps))


@st.composite
def small_matrix_lists(draw):
    cfg = draw(st.sampled_from(CONFIGS))
    l = draw(st.integers(1, 2))
    nvars = draw(st.integers(0, 2))
    ring = Ring(cfg.p, nvars)
    monos = st.tuples(*[st.integers(0, 2)] * nvars)
    nonzero = st.dictionaries(
        monos, st.integers(1, cfg.p - 1), min_size=1, max_size=2
    ).map(lambda terms: Poly(ring, terms))
    cells = st.one_of(nonzero, st.just(Poly.zero(ring)))
    mats = st.tuples(*[st.tuples(*[cells] * l)] * l)
    keys = st.tuples(st.integers(0, 1), st.integers(0, cfg.q - 1))
    entries = draw(st.dictionaries(keys, mats, min_size=1, max_size=2))
    return MatrixList(l, cfg, ring, entries)


def graph_list(text, cfg):
    return decompose(graph_generator(poly_parse(text, Ring(cfg.p, 2)), cfg))


def rank_two_q4_list():
    cfg = CharConfig(2, 2)
    ring = Ring(2, 2)
    mat = lambda rows: tuple(tuple(poly_parse(c, ring) for c in row) for row in rows)
    return MatrixList(2, cfg, ring, {
        (0, 1): mat([["x0", "x1^2"], ["0", "x0*x1"]]),
        (1, 3): mat([["1", "0"], ["x1", "x0^2"]]),
    })


@settings(derandomize=True, max_examples=100, deadline=None)
@given(small_matrix_lists(), st.integers(0, 3))
@example(graph_list("x0^2 + x1^3", CharConfig(2, 2)), 3)
@example(graph_list("x0^2*x1 + x1^2", CharConfig(3)), 3)
@example(rank_two_q4_list(), 3)
def test_walk_matches_legacy_scan(ml, e):
    cfg = ml.cfg
    want = legacy_scan(ml, e, cfg)
    got = ltm_scan(ml, e, cfg)
    assert len(got) == len(want)
    for m, (a, b) in enumerate(zip(got, want), start=1):
        assert a == b, f"module {m}/{cfg.q ** (e + 1)}"
    report = jump_report(want, e, cfg)
    assert s_set(ml, e, cfg) == report
    assert estimate_jumping_numbers(ml, cfg, max(e, 2)).s_sets[e] == report


@pytest.mark.parametrize("p", [3, 5])
def test_cusp_graph_state_expansions(monkeypatch, p):
    # the cusp graph has two distinct nonzero states; each of their q digits
    # is stepped once for all five levels, against 363 (p=3) and 3905 (p=5)
    # deep roots before
    cfg = CharConfig(p)
    A = graph_generator(poly_parse("x0^2 + x1^3", Ring(p, 2)), cfg)
    calls = spy_root_steps(monkeypatch)
    report = estimate_jumping_numbers(decompose(A), cfg, 4)
    assert report.estimates == (Fraction(1, p),)
    assert len(calls) == len(set(calls)) == 2 * cfg.q
    assert len({K for K, _ in calls}) == 2


def test_walk_leaves_nothing_on_matrix():
    # the digit slices of A(t) belong to the call's walk, not to the matrix
    cfg = CharConfig(3)
    A = graph_generator(poly_parse("x0^2 + x1^3", Ring(3, 2)), cfg)
    b_function(A, cfg, 4)
    assert set(vars(A)) == {"mat", "cfg"}


def test_digit_slices_freed_when_call_returns(monkeypatch):
    # the walk builds its slices once, for its one rank, and nothing keeps
    # them alive after the call
    built, slices = [], []

    def recording(A, rank):
        built.append(rank)
        got = _digit_slices(A, rank)
        slices.extend(map(weakref.ref, got))
        return got

    monkeypatch.setattr(listmod, "_digit_slices", recording)
    cfg = CharConfig(3)
    b_function(graph_generator(poly_parse("x0^2 + x1^3", Ring(3, 2)), cfg), cfg, 4)
    assert len(built) == 1 and len(slices) == cfg.q
    assert all(ref() is None for ref in slices)


def test_large_list_index_builds_only_touched_rows():
    # x0 at index (k, 0) gives rank 1.5k + 1 at p=3, but the walk's states
    # touch a few slots; a dense q x rank table took 111 MB here
    cfg = CharConfig(3)
    ring = Ring(3, 1)
    ml = MatrixList(1, cfg, ring, {(200000, 0): ((poly_parse("x0", ring),),)})
    tracemalloc.start()
    try:
        b_function(ml, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


@pytest.mark.parametrize("e_max", [4, 10])
def test_cusp_graph_buchberger_runs_do_not_grow_with_e_max(monkeypatch, e_max):
    # one run for the start state, q = 3 for each of the two expansions, one
    # for the zero sum and one for each of the two distinct nonzero sums: the
    # levels share their running sums, where each level once summed afresh
    # (18 runs at e_max=4, 30 at e_max=10)
    cfg = CharConfig(3)
    A = graph_generator(poly_parse("x0^2 + x1^3", Ring(3, 2)), cfg)
    # counted at the one basis entry point, term-generated modules included
    calls = []
    basis = modgb._basis

    def counted(*args):
        calls.append(None)
        return basis(*args)

    monkeypatch.setattr(modgb, "_basis", counted)
    assert b_function(A, cfg, e_max).roots == (Fraction(2, 3),)
    assert len(calls) == 10


def test_running_sums_freed_when_call_returns(monkeypatch):
    # the walk's graph, with its states and sums, belongs to one call;
    # nothing keeps it, or a sum on it, alive after
    graphs, sums = [], []
    plain_init, plain_add = _RootGraph.__init__, _RootGraph.add

    def recording_init(self, mults, cfg):
        graphs.append(weakref.ref(self))
        plain_init(self, mults, cfg)

    def recording_add(self, cum, piece):
        total = plain_add(self, cum, piece)
        sums.append(weakref.ref(total))
        return total

    monkeypatch.setattr(_RootGraph, "__init__", recording_init)
    monkeypatch.setattr(_RootGraph, "add", recording_add)
    cfg = CharConfig(3)
    b_function(graph_generator(poly_parse("x0^2 + x1^3", Ring(3, 2)), cfg), cfg, 4)
    assert len(graphs) == 1 and sums
    assert graphs[0]() is None
    assert all(ref() is None for ref in sums)


def test_cusp_graph_sums_are_graph_states():
    # at p=3 the breaks of levels 0-2 past m = 0 reach only the spans of the
    # two nonzero states, and the graph hands back its state objects for
    # them, so it keeps two spans in all
    cfg = CharConfig(3)
    walk = _RootWalk(graph_generator(poly_parse("x0^2 + x1^3", Ring(3, 2)), cfg), cfg)
    sums = [S for breaks in walk.levels(2) for _, S in breaks[1:]]
    states = list(walk.graph._known.values())
    assert len(states) == 2
    assert all(any(K is state for state in states) for K in sums)


CUSP5_GRAPH = ("x0^2 + x1^3", CharConfig(5))
D5_GRAPH = ("x0^2*x1 + x1^4", CharConfig(3))


@pytest.mark.parametrize("f, cfg, sizes", [
    (*CUSP5_GRAPH, [3] * 13),
    (*D5_GRAPH, [3] + [4] * 12),
], ids=["cusp-p5", "D5-p3"])
def test_level_breaks_stay_bounded(f, cfg, sizes):
    # a level holds its breaks, not its q^{e+1} grid points; each level is
    # checked before the next is built
    walk = _RootWalk(graph_generator(poly_parse(f, Ring(cfg.p, 2)), cfg), cfg)
    e = -1
    for e, breaks in enumerate(walk.levels(12)):
        assert len(breaks) == sizes[e], f"level {e}"
    assert e == 12


@pytest.mark.parametrize("f, cfg, roots", [
    (*CUSP5_GRAPH, (Fraction(4, 5),)),
    (*D5_GRAPH, (Fraction(5, 8), Fraction(7, 8))),
], ids=["cusp-p5", "D5-p3"])
def test_b_function_deep_e_max(f, cfg, roots):
    A = graph_generator(poly_parse(f, Ring(cfg.p, 2)), cfg)
    result = b_function(A, cfg, 12)
    assert result.roots == roots
    assert not result.unresolved


@settings(derandomize=True, max_examples=100, deadline=None)
@given(small_matrix_lists(), st.integers(0, 5))
@example(graph_list("x0^2*x1 + x1^2", CharConfig(3)), 5)
@example(rank_two_q4_list(), 4)
def test_level_breaks_match_piece_fold(ml, e):
    # the breaks, expanded to grid points, against a fold over every piece
    # of the level, each reached along its digits on a walk of its own
    cfg = ml.cfg
    while cfg.q ** (e + 1) > 1024:
        e -= 1
    walk = _RootWalk(ml, cfg)
    want = fold_scan((walk.piece(n, e) for n in range(cfg.q ** (e + 1))), walk.zero)
    got = ltm_scan(ml, e, cfg)
    assert len(got) == len(want)
    for m, (a, b) in enumerate(zip(got, want), start=1):
        assert a == b, f"module {m}/{cfg.q ** (e + 1)}"
    assert s_set(ml, e, cfg) == jump_report(want, e, cfg)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_matrix_lists(), st.integers(2, 4))
@example(graph_list("x0^2 + x1^3", CharConfig(3)), 4)
@example(rank_two_q4_list(), 3)
def test_shared_sums_match_fresh_levels(ml, e_max):
    # the running sums of one call are shared by all its levels; each level
    # must still equal a scan of that level alone
    cfg = ml.cfg
    report = estimate_jumping_numbers(ml, cfg, e_max)
    assert sorted(report.s_sets) == list(range(e_max + 1))
    for e in range(e_max + 1):
        assert report.s_sets[e] == s_set(ml, e, cfg), f"level {e}"


def test_state_past_tau_bound_raises():
    # A = t^3 at q = 2 has tau bound 3; a state in R^1 claims the bound 0,
    # and t^3 * 1 lands on t^1 after one root, past it
    cfg = CharConfig(2)
    ring = Ring(2, 0)
    A = tmat(cfg, 0, [["t^3"]])
    with pytest.raises(InternalConsistencyError, match="exceeds the tau-degree bound 0"):
        _RootGraph(_digit_slices(A, 1), cfg).child(Submodule.full(1, ring), 0)
    # in R^4 (bound 3) the children of <1> are 0 and <t>
    one = Poly.const(ring, 1)
    zero = Poly.zero(ring)
    K = Submodule(4, (VectorR((one, zero, zero, zero)),), ring)
    graph = _RootGraph(_digit_slices(A, K.rank), cfg)
    even, odd = (graph.child(K, r) for r in range(cfg.q))
    assert even.is_zero()
    assert odd == Submodule(4, (VectorR((zero, one, zero, zero)),), ring)


def test_simple_list_module_outside_t0_slot_raises():
    # a simple list's walk never leaves the t^0 slot; a module that does is
    # not an ideal of R
    ring = Ring(2, 0)
    one, zero = Poly.const(ring, 1), Poly.zero(ring)
    assert listmod._rank_one(Submodule(2, (VectorR((one, zero)),), ring)) == Submodule.full(1, ring)
    with pytest.raises(InternalConsistencyError, match="leaves the t\\^0 slot"):
        listmod._rank_one(Submodule(2, (VectorR((zero, one)),), ring))


def test_b_function_equality_tests(monkeypatch):
    # a level compares spans only where a value is not the last break's
    # object: each of the five levels has two breaks past m = 0, so one
    # b_function call runs 10 comparisons, not one per grid point
    cfg = CharConfig(3)
    A = graph_generator(poly_parse("x0^2 + x1^3", Ring(3, 2)), cfg)
    compared = []
    plain_eq = Submodule.__eq__

    def counting_eq(self, other):
        compared.append(other)
        return plain_eq(self, other)

    monkeypatch.setattr(Submodule, "__eq__", counting_eq)
    b_function(A, cfg, 4)
    assert len(compared) == 10


CFG3 = CharConfig(3)
CUSP3 = poly_parse("x0^2 + x1^3", Ring(3, 2))
CUSP3_GRAPH = graph_generator(CUSP3, CFG3)
CUSP3_LIST = decompose(CUSP3_GRAPH)


def _simple_list(cfg):
    return [CUSP3 ** (cfg.q - 1 - n) for n in range(cfg.q)]


# each entry point called with a config that is not the one of its input;
# the CharConfig(5) cases at e = 1 never take a Frobenius power, which
# checks the characteristic on its own
CONFIG_MISMATCHES = {
    "tau_f": lambda cfg: tau_f(CUSP3, Fraction(1, 2), 2, cfg),
    "tau_f_stable": lambda cfg: tau_f_stable(CUSP3, Fraction(1, 2), cfg),
    "f_jumping_exponents": lambda cfg: f_jumping_exponents(CUSP3, cfg, 2),
    "simple_list_I": lambda cfg: simple_list_I(_simple_list(cfg), GridRational(1, 0, cfg), 0, cfg),
    "simple_list_tau": lambda cfg: simple_list_tau(
        _simple_list(cfg), GridRational(cfg.q, 0, cfg), 0, cfg
    ),
    "s_set_simple": lambda cfg: s_set_simple(_simple_list(cfg), 1, cfg),
    "frobenius_root": lambda cfg: frobenius_root(Submodule.full(1, CUSP3.ring), 1, cfg),
    "ltm_scan": lambda cfg: ltm_scan(CUSP3_LIST, 1, cfg),
    "s_set": lambda cfg: s_set(CUSP3_LIST, 1, cfg),
    "list_test_module": lambda cfg: list_test_module(
        CUSP3_LIST, GridRational(cfg.q, 1, cfg), 1, cfg
    ),
    "estimate_jumping_numbers": lambda cfg: estimate_jumping_numbers(CUSP3_LIST, cfg, 2),
    "b_function": lambda cfg: b_function(CUSP3_GRAPH, cfg, 3),
    "h_expand": lambda cfg: h_expand(CUSP3_GRAPH, 1, cfg),
    "graph_generator": lambda cfg: graph_generator(CUSP3, cfg),
    "MatrixList": lambda cfg: MatrixList(1, cfg, CUSP3.ring, {(0, 0): ((CUSP3,),)}),
}
MATRIX_ENTRY_POINTS = ["ltm_scan", "s_set", "list_test_module", "estimate_jumping_numbers",
                       "b_function", "h_expand"]


@pytest.mark.parametrize("name, cfg", [
    pytest.param(name, cfg, id=f"{name}-q{cfg.q}")
    for name in CONFIG_MISMATCHES
    for cfg in [CharConfig(5)] + ([CharConfig(3, 2)] if name in MATRIX_ENTRY_POINTS else [])
])
def test_config_mismatch_rejected(name, cfg):
    # a polynomial over F_3 or a matrix list built at q = 3, with another p or q
    with pytest.raises(ValueError, match="characteristic mismatch between"):
        CONFIG_MISMATCHES[name](cfg)


# each list entry point at list level e (e_max for the chain fits)
AT_LEVEL = {
    "ltm_scan": lambda e: ltm_scan(CUSP3_LIST, e, CFG3),
    "s_set": lambda e: s_set(CUSP3_LIST, e, CFG3),
    "list_test_module": lambda e: list_test_module(CUSP3_LIST, GridRational(1, e, CFG3), e, CFG3),
    "simple_list_I": lambda e: simple_list_I(_simple_list(CFG3), GridRational(1, e, CFG3), e, CFG3),
    "estimate_jumping_numbers": lambda e: estimate_jumping_numbers(CUSP3_LIST, CFG3, e),
    "b_function": lambda e: b_function(CUSP3_GRAPH, CFG3, e),
    "h_expand": lambda e: h_expand(CUSP3_GRAPH, e, CFG3),
}


@pytest.mark.parametrize("name", AT_LEVEL)
def test_list_level_cap_boundary(monkeypatch, name):
    # a level equal to frobenius.MAX_LEVEL is solved, one past it is refused
    expected = AT_LEVEL[name](3)
    monkeypatch.setattr(frobenius, "MAX_LEVEL", 3)
    assert AT_LEVEL[name](3) == expected
    with pytest.raises(ResourceLimitExceeded, match="= 4 exceeds the level cap of 3"):
        AT_LEVEL[name](4)


def test_expansion_term_cap_boundary(monkeypatch):
    # A(t) of the cusp graph at p = 3 has 6 terms, so A^2 has at most 6^3
    monkeypatch.setattr(listmod, "MAX_EXPANSION_TERMS", 6**3)
    assert h_expand(CUSP3_GRAPH, 3, CFG3).e == 3
    monkeypatch.setattr(listmod, "MAX_EXPANSION_TERMS", 6**3 - 1)
    with pytest.raises(ResourceLimitExceeded, match=r"A\^2 may reach 6\^3 terms, past the cap"):
        h_expand(CUSP3_GRAPH, 3, CFG3)


# every list entry point that walks, at the cusp's q = 3
LIST_WALKS = {
    name: CONFIG_MISMATCHES[name]
    for name in ["simple_list_I", "simple_list_tau", "s_set_simple", "ltm_scan", "s_set",
                 "list_test_module", "estimate_jumping_numbers", "b_function"]
}
LIST_WALKS["simple_tau_scan"] = lambda cfg: simple_tau_scan(_simple_list(cfg), 1, cfg)


@pytest.mark.parametrize("name", LIST_WALKS)
def test_list_walk_q_cap_boundary(monkeypatch, name):
    # a q equal to listmod.MAX_WALK_Q is walked; past it the walk is refused
    # before any digit slice is built
    expected = LIST_WALKS[name](CFG3)
    monkeypatch.setattr(listmod, "MAX_WALK_Q", 3)
    assert LIST_WALKS[name](CFG3) == expected

    def unreachable(*args):
        raise AssertionError("digit slices built past the q cap")

    monkeypatch.setattr(listmod, "MAX_WALK_Q", 2)
    monkeypatch.setattr(listmod, "_digit_slices", unreachable)
    with pytest.raises(ResourceLimitExceeded, match="q = 3 exceeds the list walk's cap of 2"):
        LIST_WALKS[name](CFG3)


def test_digit_slice_rows_match_a_scan_per_digit():
    # each row holds its coordinate's terms on its digit in the column's
    # order, as a scan of the whole column for that one digit finds them
    cfg = CharConfig(3)
    A = tmat(cfg, 1, [["x0*t^2 + t^4 + 2", "2*t"], ["t^3 + x0", "x0^2*t^5 + t"]])
    l, q, rank = A.l, cfg.q, 6
    slices = _digit_slices(A, rank)
    for r in range(q):
        for idx in range(rank):
            s, j = divmod(idx, l)
            scan = [
                ((m[-1] + s) // q * l + i, m[:-1], c)
                for i in range(l) for m, c in A.mat[i][j].terms.items()
                if (m[-1] + s) % q == r
            ]
            assert list(slices[r][idx]) == scan

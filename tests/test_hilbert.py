from math import comb, isqrt

import pytest

from movcone import (
    BiPoly,
    BiPolyRing,
    FitInconsistency,
    IdealSpec,
    PolyParseError,
    RankDisagreement,
    default_sample_grid,
    fit_chi,
    hilbert_dim,
    parse_ideal_text,
    parse_poly,
)
from movcone import C2Form, TriForm, hilbert, intersection_data
from movcone.chow import CIData, MultiProjAmbient
from movcone.hilbert import MAX_PIECE_MONOMIALS, _PRIME_PAIRS, _rank_mod, _substitute_linear
from fractions import Fraction
from functools import cmp_to_key
from itertools import product
import random

from test_acceptance import _pfaffian_model_expected

RING46 = BiPolyRing(4, 6)
PRIMES = [p for pair in _PRIME_PAIRS for p in pair]


def test_parse_pluecker_quadric():
    p = parse_poly("y0*y5 - y1*y4 + y2*y3", RING46)
    assert p.bidegree == (0, 2)
    assert len(p.terms) == 3


def test_parse_single_variable():
    p = parse_poly("x0", RING46)
    assert p.bidegree == (1, 0)


def test_parse_mixed_bidegrees_rejected():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x0*y0 + y1", RING46)
    assert "mixed bidegrees" in str(err.value)


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x0 + z3", RING46)
    assert err.value.position > 0
    with pytest.raises(PolyParseError):
        parse_poly("x9", RING46)
    with pytest.raises(PolyParseError):
        parse_poly("", RING46)
    with pytest.raises(PolyParseError):
        parse_poly("x0*", RING46)


def test_parse_coefficients_and_powers():
    p = parse_poly("2*x1*x2*y2*y4 - x1^2*y4^2", RING46)
    assert p.bidegree == (2, 2)
    coeffs = dict(p.terms)
    assert coeffs[((0, 1, 1, 0), (0, 0, 1, 0, 1, 0))] == 2
    assert coeffs[((0, 2, 0, 0), (0, 0, 0, 0, 2, 0))] == -1


def test_parse_cancellation_gives_zero():
    p = parse_poly("x0 - x0", RING46)
    assert p.is_zero()


def test_ideal_text_header_required():
    with pytest.raises(ValueError):
        parse_ideal_text("y0*y5 - y1*y4 + y2*y3\n")
    parsed = parse_ideal_text("# comment\nring x=4 y=6\n\ny0*y5 - y1*y4 + y2*y3\n")
    assert parsed.ring == RING46
    assert len(parsed.generators) == 1


def test_zero_ideal_counts_monomials():
    empty = IdealSpec(RING46, ())
    for a, b in [(1, 0), (0, 1), (2, 2), (3, 1)]:
        assert hilbert_dim(empty, (a, b)) == comb(a + 3, 3) * comb(b + 5, 5)


def test_degree_cap_enforced():
    empty = IdealSpec(RING46, ())
    with pytest.raises(ValueError):
        hilbert_dim(empty, (7, 0))
    with pytest.raises(ValueError):
        hilbert_dim(empty, (-1, 0))


def test_base_ideal_linear_piece(ex41_ideal):
    base = IdealSpec(ex41_ideal.ring, ex41_ideal.generators[:5])
    assert hilbert_dim(base, (0, 1)) == 6
    assert hilbert_dim(ex41_ideal, (0, 1)) == 5


# Frozen by an independent exact-rational rank computation (and cross-checked
# against the free resolution of the Pfaffian ideal).
EX41_DIMS = {
    (1, 0): 4,
    (0, 1): 5,
    (1, 1): 16,
    (2, 1): 35,
    (1, 2): 40,
    (2, 2): 80,
    (3, 3): 240,
    (0, 2): 14,
    (4, 0): 35,
    (0, 3): 30,
}


def test_pfaffian_model_dims(ex41_ideal):
    for bd, want in EX41_DIMS.items():
        assert hilbert_dim(ex41_ideal, bd) == want, bd


def test_monotone_under_added_generators(ex41_ideal):
    ring = ex41_ideal.ring
    for bd in [(1, 1), (2, 2), (1, 2)]:
        prev = None
        for k in range(len(ex41_ideal.generators) + 1):
            val = hilbert_dim(IdealSpec(ring, ex41_ideal.generators[:k]), bd)
            if prev is not None:
                assert val <= prev
            prev = val


def test_fit_recovers_pfaffian_model_data(ex41_fit):
    assert ex41_fit.triform.as_tuple() == (2, 6, 8, 4)
    assert ex41_fit.c2form.as_tuple() == (44, 52)


def test_fit_reproduces_every_sample(ex41_fit):
    tri, c2 = ex41_fit.triform, ex41_fit.c2form
    for (a, b), dim in ex41_fit.samples:
        chi12 = 2 * tri.cube(a, b) + c2.pair(a, b)
        assert chi12 % 12 == 0 and chi12 // 12 == dim


def test_fit_matches_chow_for_oguiso(oguiso_fit):
    assert oguiso_fit.triform.as_tuple() == (2, 6, 6, 2)
    assert oguiso_fit.c2form.as_tuple() == (44, 44)


def test_fit_rejects_underdetermined():
    with pytest.raises(ValueError):
        fit_chi([((1, 1), 16)] * 6)


def test_fit_rejects_inconsistent(ex41_fit):
    bad = list(ex41_fit.samples)
    (a, b), dim = bad[0]
    bad[0] = ((a, b), dim + 1)
    with pytest.raises(FitInconsistency):
        fit_chi(bad)


def test_fit_rejects_unstabilized_boundary_columns(ex41_ideal):
    # (0,3) lags the Euler cubic; including it must be reported, not absorbed
    samples = [(bd, hilbert_dim(ex41_ideal, bd)) for bd in default_sample_grid(3)]
    samples.append(((0, 3), hilbert_dim(ex41_ideal, (0, 3))))
    with pytest.raises(FitInconsistency):
        fit_chi(samples)


def test_default_sample_grid():
    grid = default_sample_grid(3)
    assert len(grid) == 9
    assert all(1 <= a and 1 <= b and a + b >= 2 for a, b in grid)
    assert default_sample_grid(6)[-1] == (6, 6)


@pytest.mark.parametrize("max_degree", [0, 7, 10**9])
def test_default_sample_grid_rejects_degrees_past_the_cap(max_degree):
    with pytest.raises(ValueError, match="cap 6"):
        default_sample_grid(max_degree)


def _sparse(matrix):
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def test_rank_agrees_across_primes():
    rng = random.Random(3)
    base = _sparse([[rng.randint(-4, 4) for _ in range(30)] for _ in range(40)])
    ranks = {_rank_mod(base, p) for p in PRIMES}
    assert len(ranks) == 1


def _rank_over_q(matrix):
    """Rank over Q by exact echelon reduction of Fraction rows."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [u - f * v for u, v in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _test_matrix(rng, kind):
    """A small integer matrix: dense, sparse (about 15% nonzero), or
    rank-deficient (a few random rows plus duplicates, sums and multiples)."""
    m, n = rng.randint(1, 12), rng.randint(1, 12)
    if kind == "dense":
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    if kind == "sparse":
        return [[rng.randint(-9, 9) if rng.random() < 0.15 else 0 for _ in range(n)] for _ in range(m)]
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 4))]
    for _ in range(m):
        u, v = rng.choice(rows), rng.choice(rows)
        k = rng.choice([0, 1, -2])
        rows.append(list(u) if rng.random() < 0.3 else [x + k * y for x, y in zip(u, v)])
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("kind", ["dense", "sparse", "deficient"])
@pytest.mark.parametrize("seed", range(20))
def test_rank_mod_p_matches_exact_rank_over_q(seed, kind):
    # adding p or 2^70 p to an entry changes nothing mod p, so zero entries
    # become coefficients equal to p or 2^70 p that the rank must ignore
    rng = random.Random(f"{kind}:{seed}")
    matrix = _test_matrix(rng, kind)
    p = rng.choice(PRIMES)
    lifted = [[v + p * rng.choice([0, 0, 1, -1, 1 << 70]) for v in row] for row in matrix]
    assert _rank_mod(_sparse(lifted), p) == _rank_over_q(matrix)


@pytest.mark.parametrize("kind", ["dense", "sparse", "deficient"])
@pytest.mark.parametrize("seed", range(20))
def test_rank_mod_pair_matches_exact_rank_over_q(seed, kind):
    # one elimination modulo n = p*q; entries lifted by multiples of n
    rng = random.Random(f"pair:{kind}:{seed}")
    matrix = _test_matrix(rng, kind)
    p, q = rng.choice(_PRIME_PAIRS)
    lifted = [[v + p * q * rng.choice([0, 0, 1, -1, 1 << 70]) for v in row] for row in matrix]
    rank = _rank_mod(_sparse(lifted), p * q)
    assert rank is None or rank == _rank_over_q(matrix)


def test_rank_mod_pair_is_none_or_the_rank_mod_both_primes():
    # zero entries lifted by p alone are non-units mod p*q: a run either
    # stops at one (None) or its pivot count is the rank mod p and mod q
    outcomes = set()
    for seed in range(60):
        rng = random.Random(f"crt:{seed}")
        matrix = _test_matrix(rng, rng.choice(["dense", "sparse", "deficient"]))
        p, q = rng.choice(_PRIME_PAIRS)
        rows = _sparse([[v or p * rng.choice([0, 0, 1, 5]) for v in row] for row in matrix])
        rank = _rank_mod(rows, p * q)
        if rank is not None:
            assert rank == _rank_mod(rows, p) == _rank_mod(rows, q), seed
        outcomes.add(rank is None)
    assert outcomes == {True, False}


def test_non_unit_entry_moves_to_the_next_pair():
    # 2147483647 is the first prime of pair 1 and a unit modulo pair 2
    (p, q), (p2, q2), _ = _PRIME_PAIRS
    assert _rank_mod([{0: p}], p * q) is None
    assert _rank_mod([{0: p}], p2 * q2) == 1
    ideal = parse_ideal_text(f"ring x=1 y=1\n{p}*x0*y0")
    assert hilbert_dim(ideal, (1, 1)) == 0
    assert hilbert_dim(ideal, (0, 0)) == 1


def test_prime_table():
    # six distinct primes in (2^30, 2^31), by trial division up to sqrt(2^31)
    assert len(set(PRIMES)) == 6
    for p in PRIMES:
        assert 2**30 < p < 2**31
        assert p % 2 and all(p % d for d in range(3, isqrt(p) + 1, 2)), p


def _scripted_ranks(monkeypatch, ranks):
    """Make _rank_mod return ranks[n] (None for a pair that disagrees) and
    record the moduli it saw."""
    seen = []

    def fake(rows, n):
        seen.append(n)
        return ranks[n]

    monkeypatch.setattr(hilbert, "_rank_mod", fake)
    return seen


def test_rank_retries_with_the_next_pair(monkeypatch):
    (p1, p2), (q1, q2), _ = _PRIME_PAIRS
    seen = _scripted_ranks(monkeypatch, {p1 * p2: None, q1 * q2: 7})
    ncols = comb(2 + 3, 3) * comb(1 + 5, 5)  # monomials of bidegree (2, 1) over x=4, y=6
    assert hilbert_dim(IdealSpec(RING46, ()), (2, 1)) == ncols - 7
    assert seen == [p1 * p2, q1 * q2]


def test_rank_disagreeing_on_every_pair_raises(monkeypatch):
    seen = _scripted_ranks(monkeypatch, {p * q: None for p, q in _PRIME_PAIRS})
    with pytest.raises(RankDisagreement, match=r"bidegree \(2, 1\)"):
        hilbert_dim(IdealSpec(RING46, ()), (2, 1))
    assert seen == [p * q for p, q in _PRIME_PAIRS]


def test_coefficients_beyond_int64(oguiso_ideal):
    # scaling a generator by a unit of every prime field keeps each rank
    g = oguiso_ideal.generators[0]
    scaled = BiPoly(g.ring, tuple((mono, c << 70) for mono, c in g.terms))
    big = IdealSpec(oguiso_ideal.ring, (scaled,) + oguiso_ideal.generators[1:])
    for bd in default_sample_grid(3):
        assert hilbert_dim(big, bd) == hilbert_dim(oguiso_ideal, bd), bd


@pytest.mark.parametrize(
    "text, dim",
    [
        ("ring x=2 y=1\ny0", lambda a, b: a + 1 if b == 0 else 0),
        ("ring x=1 y=2\nx0", lambda a, b: b + 1 if a == 0 else 0),
        ("ring x=2 y=3\ny0\n3*y1 - y2\ny2\nx0*y2", lambda a, b: a + 1 if b == 0 else 0),
        ("ring x=2 y=3\ny0 - y1\n2*y0 - 2*y1", lambda a, b: (a + 1) * (b + 1)),
        ("ring x=2 y=2\n1", lambda a, b: 0),
        ("ring x=2 y=2\n1\ny0", lambda a, b: 0),
    ],
    ids=["y-eliminated", "x-eliminated", "y-eliminated-with-others", "dependent", "constant",
         "constant-and-linear"],
)
def test_linear_generator_edge_cases(text, dim):
    ideal = parse_ideal_text(text)
    for a, b in product(range(4), repeat=2):
        assert hilbert_dim(ideal, (a, b)) == dim(a, b), (a, b)


def test_substitution_drops_example41_linear_form(ex41_ideal, monkeypatch):
    # y5 = y0 + ... + y4 leaves the six nonlinear generators over x=4, y=5
    sub = _substitute_linear(ex41_ideal)
    assert (sub.ring.x_count, sub.ring.y_count) == (4, 5)
    assert len(sub.generators) == 6
    assert not any(g.bidegree in ((1, 0), (0, 1)) for g in sub.generators)
    # and hilbert_dim ranks that ideal's matrix: at (2,2), 10 + 4*20 + 1 rows
    # by 10*15 monomials, where the input ideal would give 167 x 210, less
    # the 1 + 2 + 3 rows m*f_j of the (1,1) generators whose multiplier m is
    # the leading monomial of an earlier (1,1) generator; the column count is
    # the returned dimension plus the rank
    seen = set()

    def spy(rows, n):
        assert all(0 <= c < 150 for row in rows for c in row)
        rank = _rank_mod(rows, n)
        seen.add((len(rows), rank))
        return rank

    monkeypatch.setattr(hilbert, "_rank_mod", spy)
    dim = hilbert_dim(ex41_ideal, (2, 2))
    assert dim == 80
    assert {(rows, rank + dim) for rows, rank in seen} == {(85, 150)}


def test_substitution_runs_once_per_ideal(monkeypatch):
    calls = []
    monkeypatch.setattr(hilbert, "_substitute_linear", lambda ideal: calls.append(ideal) or _substitute_linear(ideal))
    ideal = parse_ideal_text("ring x=2 y=3\ny0 - y1\nx0*y2")
    assert [hilbert_dim(ideal, bd) for bd in default_sample_grid(2)] == [3, 4, 4, 5]
    assert calls == [ideal]


def test_piece_past_the_monomial_bound_is_refused(monkeypatch):
    # 1000 * 1000 monomials at (1, 1): refused before any substitution,
    # monomial list or row is built
    monkeypatch.setattr(hilbert, "_substitute_linear", lambda ideal: pytest.fail("substituted"))
    monkeypatch.setattr(hilbert, "_monomials", lambda *args: pytest.fail("listed monomials"))
    ring = BiPolyRing(1000, 1000)
    ideal = IdealSpec(ring, (parse_poly("x0*y0", ring),))
    with pytest.raises(ValueError, match=f"1000000 monomials, more than {MAX_PIECE_MONOMIALS}"):
        hilbert_dim(ideal, (1, 1))
    assert comb(4 + 6 - 1, 6) * comb(6 + 6 - 1, 6) < MAX_PIECE_MONOMIALS  # example41 at (6, 6)


# x2^e*y0 + x0^e*y1 has bidegree (e, 1): past the degree cap for e > 6
_STEEP = "ring x=3 y=2\nx0 + x1 + x2\nx2^{e}*y0 + x0^{e}*y1\nx0*y0 + x1*y1\n"
_STEEP_WITHOUT = "ring x=3 y=2\nx0 + x1 + x2\nx0*y0 + x1*y1\n"


def test_generator_past_the_cap_is_left_out_of_the_substitution():
    # every piece that holds rows of a (7, 1) generator is refused anyway
    sub = parse_ideal_text(_STEEP.format(e=7)).substituted
    assert sub == parse_ideal_text(_STEEP_WITHOUT).substituted
    assert [g.bidegree for g in sub.generators] == [(1, 1)]


def test_generator_of_huge_degree_is_never_expanded():
    ideal = parse_ideal_text(_STEEP.format(e=10**9))
    without = parse_ideal_text(_STEEP_WITHOUT)
    for bd in product(range(5), repeat=2):
        assert hilbert_dim(ideal, bd) == hilbert_dim(without, bd), bd


def test_generator_past_the_monomial_bound_is_left_out_of_the_substitution():
    # (3, 1) over x=400 y=2 has comb(402, 3) * 2 monomials; (1, 1) has 800
    ring = BiPolyRing(400, 2)
    ideal = IdealSpec(ring, (parse_poly("x0^3*y1", ring), parse_poly("x0*y0", ring)))
    assert ideal.substituted.generators == (parse_poly("x0*y0", ring),)


def test_substitution_expands_one_factor_at_a_time():
    # x11 -> -(x0 + ... + x10): the sixth power has comb(16, 6) terms, each
    # with its multinomial coefficient, where a product per choice of factors
    # would take 11^6 steps
    ring = BiPolyRing(12, 2)
    linear = parse_poly(" + ".join(f"x{i}" for i in range(12)), ring)
    ideal = IdealSpec(ring, (linear, parse_poly("x11^6*y0 + x0^6*y1", ring)))
    (g,) = ideal.substituted.generators
    terms = dict(g.terms)
    assert len(terms) == comb(16, 6) + 1
    assert terms[((6,) + (0,) * 10, (0, 1))] == 1
    assert terms[((1,) * 6 + (0,) * 5, (1, 0))] == 720
    assert terms[((0,) * 9 + (4, 2), (1, 0))] == 15


def test_ring_header_past_the_bound_is_refused(monkeypatch):
    # x*y monomials of bidegree (1, 1) above the bound: refused at the
    # header, before any generator is parsed
    assert parse_ideal_text("ring x=400 y=500").ring == BiPolyRing(400, 500)
    monkeypatch.setattr(hilbert, "parse_poly", lambda *args: pytest.fail("parsed a generator"))
    for header, size in [("ring x=1000000 y=1", 1000000), ("ring x=401 y=500", 200500)]:
        with pytest.raises(ValueError, match=rf"^line 2: {header} has {size} monomials of bidegree \(1, 1\), "
                                             f"more than {MAX_PIECE_MONOMIALS}$"):
            parse_ideal_text(f"# comment\n{header}\n" + "x0*y0 + x1*y0\n" * 10)


@pytest.mark.parametrize(
    "count, message",
    # int() refuses more than 4,300 digits by default; 3.10 words it "(4300)"
    [("0", "variable counts must be at least 1$"), ("9" * 5000, r"Exceeds the limit \(4300")],
    ids=["zero", "past-digit-limit"],
)
def test_ring_header_count_error_names_its_line(count, message):
    with pytest.raises(ValueError, match=rf"^line 2: {message}"):
        parse_ideal_text(f"# comment\nring x={count} y=3\nx0*y0\n")


def test_zero_generator_names_its_line():
    # the terms cancel: parse_poly gives the zero polynomial, the file refuses it
    with pytest.raises(ValueError, match=r"^line 3: zero generator$"):
        parse_ideal_text("ring x=2 y=2\nx0*y0\nx0*y1 - x0*y1\n")


def _record_ranks(monkeypatch):
    """Wrap _rank_mod to record (row count, modulus, rank) of each call."""
    seen = []

    def spy(rows, n):
        rank = _rank_mod(rows, n)
        seen.append((len(rows), n, rank))
        return rank

    monkeypatch.setattr(hilbert, "_rank_mod", spy)
    return seen


@pytest.mark.parametrize("name", ["example41", "oguiso", "three-quadrics"])
def test_dropped_rows_keep_the_rank(name, ex41_ideal, oguiso_ideal):
    # the multiples of earlier leading monomials that hilbert_dim drops lie
    # in the span of the rows it keeps; on the three quadrics, keying them on
    # the middle term of each generator instead loses a rank at (3, 2)
    ideal = {
        "example41": ex41_ideal,
        "oguiso": oguiso_ideal,
        "three-quadrics": parse_ideal_text(
            "ring x=2 y=2\nx1^2 + x0*x1 + x0^2\n-y1^2 + y0*y1 + 2*y0^2\nx1^2 - x0*x1 + x0^2"
        ),
    }[name]
    for a, b in product(range(5), repeat=2):
        ncols, rows = _all_rows(ideal.substituted, a, b)
        assert hilbert_dim(ideal, (a, b)) == ncols - _rank_mod(rows, PRIMES[0]), (a, b)


def test_example41_4x4_ranks_2347_rows(ex41_ideal, monkeypatch):
    # 3475 rows without the criterion, of rank 1906 over 2450 columns
    seen = _record_ranks(monkeypatch)
    assert hilbert_dim(ex41_ideal, (4, 4)) == 544
    p, q = _PRIME_PAIRS[0]
    assert seen == [(2347, p * q, 1906)]


def _record_rows(monkeypatch):
    """Wrap _rank_mod to record the rows of each call."""
    seen = []

    def spy(rows, n):
        seen.append(rows)
        return _rank_mod(rows, n)

    monkeypatch.setattr(hilbert, "_rank_mod", spy)
    return seen


def _grevlex_cmp(e, f):
    """Graded reverse lex on exponent vectors, x0 > x1 > ...: the higher
    degree wins, then the smaller exponent at the last place they differ."""
    if sum(e) != sum(f):
        return sum(e) - sum(f)
    return next((v - u for u, v in zip(reversed(e), reversed(f)) if u != v), 0)


def _column_key(mono):
    """Sort key of a monomial (x exponents, y exponents) in the column
    order: grevlex on the x block, ties broken by grevlex on y."""
    return cmp_to_key(_grevlex_cmp)(mono[0]), cmp_to_key(_grevlex_cmp)(mono[1])


def _column_order(x_count, y_count, a, b):
    """The monomials of bidegree (a, b), ascending in the column order."""
    return sorted(product(_exponents(x_count, a), _exponents(y_count, b)), key=_column_key)


@pytest.mark.parametrize(
    "x_count, y_count, a, b", [(2, 3, 3, 1), (3, 2, 2, 2), (4, 3, 3, 2), (1, 4, 2, 3), (5, 2, 1, 2), (3, 3, 4, 3)]
)
def test_columns_run_in_grevlex_per_kind_x_block_first(x_count, y_count, a, b, monkeypatch):
    # one generator holding every monomial of bidegree (a, b), each with its
    # own coefficient, is the one row of that piece, so its sorted columns
    # name the monomials in column order; the highest column is the pivot,
    # so a column order other than the criterion's makes the reduction
    # several times slower without changing any rank
    ring = BiPolyRing(x_count, y_count)
    monos = _column_order(x_count, y_count, a, b)
    coeffs = dict(zip(random.Random(len(monos)).sample(monos, len(monos)), range(1, len(monos) + 1)))
    seen = _record_rows(monkeypatch)
    assert hilbert_dim(IdealSpec(ring, (BiPoly.from_dict(ring, coeffs),)), (a, b)) == len(monos) - 1
    ((row,),) = seen
    named = {c: m for m, c in coeffs.items()}
    assert sorted(row) == list(range(len(monos)))
    assert [named[row[col]] for col in sorted(row)] == monos


@pytest.mark.parametrize("name", ["example41", "oguiso", "lex-differs"])
def test_criterion_keys_each_generator_on_its_grevlex_leading_term(name, ex41_ideal, oguiso_ideal, monkeypatch):
    # in the ideal (g, h), with h every monomial of bidegree (1, 2), the
    # piece of bidegree deg(g) + (1, 2) drops exactly the row LM(g)*h, and
    # LM(g) must be g's largest term in the column order; on the bundled
    # generators that is also the lex-largest term, so the last ideal holds
    # generators where lex or a y-block-first order picks another term
    ideal = {
        "example41": ex41_ideal,
        "oguiso": oguiso_ideal,
        "lex-differs": parse_ideal_text("ring x=3 y=3\nx0*x2*y0 + x1^2*y1\nx0*y0*y2 + x0*y1^2\nx1*y0 + x0*y1"),
    }[name].substituted
    nx, ny = ideal.ring.x_count, ideal.ring.y_count
    h_monos = list(product(_exponents(nx, 1), _exponents(ny, 2)))
    h = BiPoly.from_dict(ideal.ring, dict.fromkeys(h_monos, 1))
    h_min = [min(e) for e in zip(*(xe + ye for xe, ye in h_monos))]
    seen = _record_rows(monkeypatch)
    for g in ideal.generators:
        assert len(g.terms) < len(h_monos)
        ga, gb = g.bidegree
        cols = _column_order(nx, ny, ga + 1, gb + 2)
        seen.clear()
        hilbert_dim(IdealSpec(ideal.ring, (g, h)), (ga + 1, gb + 2))
        kept = set()
        for row in seen[0]:
            if len(row) == len(h_monos):
                # the multiplier of a row of h: the least exponent of each
                # variable over the row's monomials, less that over h's
                exps = zip(*(cols[c][0] + cols[c][1] for c in row))
                kept.add(tuple(min(e) - least for e, least in zip(exps, h_min)))
        multipliers = {xe + ye for xe, ye in product(_exponents(nx, ga), _exponents(ny, gb))}
        lm = max((mono for mono, _ in g.terms), key=_column_key)
        assert multipliers - kept == {lm[0] + lm[1]}, g


@pytest.mark.parametrize("name", ["example41", "oguiso"])
def test_grid_5_dims_equal_chi(name, ex41_ideal, oguiso_ideal):
    # beyond the fitted grid 1..4: the Hilbert function has stabilized on the
    # Euler cubic of the reference data (Schubert calculus for example41,
    # the Chow ring for oguiso)
    if name == "example41":
        ideal, (tri, c2) = ex41_ideal, _pfaffian_model_expected()
        tri, c2 = TriForm(*tri), C2Form(*c2)
    else:
        ideal = oguiso_ideal
        tri, c2 = intersection_data(CIData(MultiProjAmbient((3, 3)), ((1, 1), (1, 1), (2, 2))))
    for a, b in [(5, 5), (1, 5), (5, 1)]:
        chi12 = 2 * tri.cube(a, b) + c2.pair(a, b)
        assert chi12 % 12 == 0 and hilbert_dim(ideal, (a, b)) == chi12 // 12, (a, b)


def _exponents(n, d):
    return [e for e in product(range(d + 1), repeat=n) if sum(e) == d]


def _all_rows(ideal, a, b):
    """Column count and every row m*g {column: coefficient} of the relation
    matrix, in generator order, with no row dropped."""
    ring = ideal.ring
    cols = list(product(_exponents(ring.x_count, a), _exponents(ring.y_count, b)))
    index = {c: i for i, c in enumerate(cols)}
    rows = []
    for g in ideal.generators:
        ga, gb = g.bidegree
        if ga > a or gb > b:
            continue
        for xq, yq in product(_exponents(ring.x_count, a - ga), _exponents(ring.y_count, b - gb)):
            rows.append({
                index[tuple(map(sum, zip(xe, xq))), tuple(map(sum, zip(ye, yq)))]: c for (xe, ye), c in g.terms
            })
    return len(cols), rows


def _dim_over_q(ideal, a, b):
    """Monomials minus the rank over Q of the unsubstituted relation matrix,
    by exact echelon reduction of sparse Fraction rows."""
    ncols, rows = _all_rows(ideal, a, b)
    pivots = {}  # column -> reduced row with 1 there
    for row in rows:
        row = {k: Fraction(v) for k, v in row.items()}
        while row:
            col = min(row)
            if col not in pivots:
                pivots[col] = {k: v / row[col] for k, v in row.items()}
                break
            f = row[col]
            for k, v in pivots[col].items():
                row[k] = row.get(k, 0) - f * v
                if not row[k]:
                    del row[k]
    return ncols - len(pivots)


def _random_ideal(rng):
    """One or two linear generators with coefficients up to 7 (the first
    scaled by 2^70 about a third of the time) and one to three of bidegree up
    to (2, 2), over a ring of at most 3 + 3 variables."""
    ring = BiPolyRing(rng.randint(1, 3), rng.randint(2, 3))
    bidegrees = rng.sample([(1, 0), (0, 1), (0, 1)], rng.randint(1, 2)) + rng.sample(
        [(1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)], rng.randint(1, 3)
    )
    gens = []
    for i, (ga, gb) in enumerate(bidegrees):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = (rng.choice(_exponents(ring.x_count, ga)), rng.choice(_exponents(ring.y_count, gb)))
            terms[mono] = rng.choice([-3, -2, -1, 1, 2, 3, 7])
        if i == 0 and rng.random() < 0.3:
            terms = {m: c << 70 for m, c in terms.items()}
        gens.append(BiPoly.from_dict(ring, terms))
    return IdealSpec(ring, tuple(gens))


@pytest.mark.parametrize("seed", range(40))
def test_hilbert_dim_matches_exact_rank_over_q(seed):
    ideal = _random_ideal(random.Random(seed))
    for a, b in product(range(4), repeat=2):
        assert hilbert_dim(ideal, (a, b)) == _dim_over_q(ideal, a, b), (a, b)


def test_leading_coefficient_divisible_by_a_prime_moves_to_the_next_pair(monkeypatch):
    # modulo p the first generator's leading term x0*y0 vanishes, so the row
    # x0*y0*f_2 that the criterion drops is not in the span of the kept rows
    # mod p: pair 1 disagrees and pair 2 certifies the rank over Q
    (p, q), (p2, q2), _ = _PRIME_PAIRS
    ideal = parse_ideal_text(f"ring x=2 y=1\n{p}*x0*y0 + x1*y0\nx0*y0 + 2*x1*y0")
    seen = _record_ranks(monkeypatch)
    assert hilbert_dim(ideal, (2, 2)) == 0 == _dim_over_q(ideal, 2, 2)
    assert seen == [(3, p * q, None), (3, p2 * q2, 3)]

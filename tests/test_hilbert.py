from math import comb, gcd, isqrt

import pytest

from movcone import (
    BiPoly,
    BiPolyRing,
    FitInconsistency,
    IdealSpec,
    PolyParseError,
    default_sample_grid,
    fit_chi,
    hilbert_dim,
    parse_ideal_text,
    parse_poly,
)
from movcone import C2Form, TriForm, hilbert, intersection_data
from movcone.chow import CIData, MultiProjAmbient
from movcone.hilbert import MAX_PIECE_MONOMIALS, MAX_RING_VARIABLES, _PRIME, _rank_exact, _rank_mod, _substitute_linear
from fractions import Fraction
from functools import cmp_to_key
from itertools import product
from operator import add
import random
import re

from test_acceptance import _pfaffian_model_expected

RING46 = BiPolyRing(4, 6)


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


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("x0*x", "cannot parse factor 'x'", 3),
        ("x0*y0*0", "integer coefficient must come first", 6),
        ("x0 + 2*2", "integer coefficient must come first", 7),
        ("x0*", "empty factor", 3),
        ("x0**y1", "empty factor", 3),
        ("x0 + z3", "cannot parse factor 'z3'", 5),
        # a superscript is a digit to str.isdigit but not to int()
        ("²*x0*y0", "cannot parse factor '²'", 0),
        ("x0*y0 - 3*x1*y1³", "cannot parse factor 'y1³'", 13),
    ],
)
def test_parse_error_position_is_the_offending_factor(text, message, position):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text, RING46)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_unparsed_factor_starts_at_its_position():
    # the whole factor, delimited by '*', a sign or an end on both sides
    rng = random.Random(20261019)
    tokens = ["x0", "x1^2", "x0^2", "y0", "2", "x", "y", "x0^", "^2", "0x", "x0y0", "x 0", ""]
    for _ in range(3000):
        terms = ("*".join(rng.choice(tokens) for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(1, 3)))
        text = "".join(rng.choice(["", " ", "-", " - ", "+"]) + term for term in terms)
        try:
            parse_poly(text, RING46)
        except PolyParseError as exc:
            if factor := re.fullmatch(r"cannot parse factor '(.*)' \(at position \d+\)", str(exc)):
                before, after = text[:exc.position].rstrip(), text[exc.position:]
                assert after.startswith(factor[1]), (text, str(exc))
                assert re.match(r"\s*([*+-]|$)", after[len(factor[1]):]), (text, str(exc))
                assert not before or before[-1] in "*+-", (text, str(exc))


def test_parse_coefficients_and_powers():
    p = parse_poly("2*x1*x2*y2*y4 - x1^2*y4^2", RING46)
    assert p.bidegree == (2, 2)
    coeffs = dict(p.terms)
    assert coeffs[((0, 1, 1, 0), (0, 0, 1, 0, 1, 0))] == 2
    assert coeffs[((0, 2, 0, 0), (0, 0, 0, 0, 2, 0))] == -1


def test_parse_coefficient_in_other_decimal_digits():
    # int() reads every Unicode decimal digit, so these coefficients are 3 and 12
    assert parse_poly("٣*x0*y0 - ١٢*x1*y1", RING46) == parse_poly("3*x0*y0 - 12*x1*y1", RING46)


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


def _reference_fit_chi(samples):
    """fit_chi by Gauss-Jordan elimination over Fraction rows: the
    reference for its fraction-free integer elimination."""
    samples = list(samples)
    if len(samples) < 6:
        raise ValueError(f"need at least 6 samples, got {len(samples)}")
    mat = []
    for (a, b), dim in samples:
        row = [2 * a**3, 6 * a * a * b, 6 * a * b * b, 2 * b**3, a, b, 12 * dim]
        mat.append([Fraction(v) for v in row])

    nrows = len(mat)
    rank = 0
    for c in range(6):
        piv = next((i for i in range(rank, nrows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][c]
        mat[rank] = [v / pv for v in mat[rank]]
        for i in range(nrows):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [u - f * v for u, v in zip(mat[i], mat[rank])]
        rank += 1
    if rank < 6:
        raise ValueError("sample bidegrees are degenerate: system underdetermined")
    for i in range(rank, nrows):
        if any(mat[i]):
            raise FitInconsistency(
                "over-determined system inconsistent: Hilbert values at the sampled "
                "bidegrees do not agree with any single Euler cubic (not stabilized)"
            )
    sol = [mat[i][6] for i in range(6)]
    if any(v.denominator != 1 for v in sol):
        raise FitInconsistency(f"fit produced non-integral intersection data {sol}")
    t1, t2, t3, t4, c5, c6 = (int(v) for v in sol)
    return TriForm(t1, t2, t3, t4), C2Form(c5, c6)


def _fit_outcome(fit, samples):
    """fit's forms as tuples, or the type and message of what it raised."""
    try:
        tri, c2 = fit(samples)
    except ValueError as exc:
        return type(exc), str(exc)
    return tri.as_tuple(), c2.as_tuple()


def test_fit_chi_matches_the_fraction_elimination():
    # samples of a random Euler cubic at bidegrees 0..4, degree 0 included,
    # some with one value off by one or replaced, some drawn from few
    # bidegrees: fits, non-integral and inconsistent systems, degenerate ones
    outcomes = set()
    for seed in range(3000):
        rng = random.Random(f"fit:{seed}")
        tri = TriForm(*(rng.randint(-9, 9) for _ in range(4)))
        c2 = C2Form(rng.randint(-60, 60), rng.randint(-60, 60))
        span = rng.choice([2, 3, 5])
        bidegrees = [(rng.randrange(span), rng.randrange(span)) for _ in range(rng.randint(5, 9))]
        samples = [((a, b), (2 * tri.cube(a, b) + c2.pair(a, b)) // 12) for a, b in bidegrees]
        if rng.random() < 0.3:
            k = rng.randrange(len(samples))
            samples[k] = samples[k][0], samples[k][1] + rng.choice([-1, 1, rng.randint(-99, 99)])
        want = _fit_outcome(_reference_fit_chi, samples)
        assert _fit_outcome(fit_chi, samples) == want, samples
        outcomes.add(" ".join(want[1].split()[:2]) if isinstance(want[0], type) else "fit")
    assert outcomes == {"fit", "fit produced", "over-determined system", "sample bidegrees", "need at"}


def test_default_sample_grid():
    grid = default_sample_grid(3)
    assert len(grid) == 9
    assert all(1 <= a and 1 <= b and a + b >= 2 for a, b in grid)
    assert default_sample_grid(6)[-1] == (6, 6)


@pytest.mark.parametrize("max_degree", [0, 1, 2, 7, 10**9])
def test_default_sample_grid_rejects_degrees_past_the_cap(max_degree):
    with pytest.raises(ValueError, match="cap 6"):
        default_sample_grid(max_degree)


def _rows(groups):
    """Groups (coefficients, [columns, ...]) as _rank_mod takes them: each
    row a pair (xs, y) whose columns are map(add, xs, y), here each column c
    split as c // 2 + (c - c // 2), so that a rank must read both parts."""
    return [(coeffs, [([c // 2 for c in cols], [c - c // 2 for c in cols]) for cols in rows])
            for coeffs, rows in groups]


def _dicts(groups):
    """Every row of groups of (xs, y) rows as a dict {column: coefficient}."""
    return [dict(zip(map(add, xs, y), coeffs)) for coeffs, rows in groups for xs, y in rows]


def _sparse(matrix):
    """Each row as its own group (coefficients, [row]): its nonzero
    entries from the highest column down."""
    groups = []
    for row in matrix:
        cols = [j for j in reversed(range(len(row))) if row[j]]
        groups.append((tuple(row[j] for j in cols), [cols]))
    return _rows(groups)


def test_rank_agrees_across_primes():
    rng = random.Random(3)
    base = _sparse([[rng.randint(-4, 4) for _ in range(30)] for _ in range(40)])
    ranks = {_rank_mod(base, p) for p in (_PRIME, 2147483647, 1000000007)}
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
    p = _PRIME
    lifted = [[v + p * rng.choice([0, 0, 1, -1, 1 << 70]) for v in row] for row in matrix]
    assert _rank_mod(_sparse(lifted), p) == _rank_over_q(matrix)


@pytest.mark.parametrize("kind", ["dense", "sparse", "deficient"])
@pytest.mark.parametrize("seed", range(20))
def test_rank_mod_pair_matches_exact_rank_over_q(seed, kind):
    # hilbert_dim's pair of eliminations, modulo a prime and then over Z:
    # entries lifted by multiples of a small prime p, often 2^70 p, so rows
    # fall to zero mod p that are not zero over Q.  The elimination over Z
    # has the rank over Q, and its zero rows are the rows in the span of the
    # rows before them
    rng = random.Random(f"pair:{kind}:{seed}")
    matrix = _test_matrix(rng, kind)
    p = rng.choice([2, 3, 5, 7])
    lifted = [[v + p * rng.choice([0, 0, 1, -1, 1 << 70]) for v in row] for row in matrix]
    zeros = []
    rank = _rank_exact(_sparse(lifted), zeros)
    assert _rank_mod(_sparse(lifted), p) <= rank == _rank_over_q(lifted)
    assert zeros == [i for i in range(len(lifted)) if _rank_over_q(lifted[:i + 1]) == _rank_over_q(lifted[:i])]


def _reference_rank_mod(rows, p, zeros=None):
    """Rank of dict rows {column: coefficient} modulo a prime p by reduction
    against monic pivot rows keyed by their highest column: the reference
    for _rank_mod on grouped rows."""
    pivots = {}
    for i, row in enumerate(rows):
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            c = max(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
                break
            f = row[c]
            for k, v in pivot.items():
                w = (row.get(k, 0) - f * v) % p
                if w:
                    row[k] = w
                else:
                    del row[k]
        else:
            if zeros is not None:
                zeros.append(i)
    return len(pivots)


def _random_groups(rng, p):
    """Groups (coefficients, [(xs, y), ...]) over at most 8 columns, each
    row's highest column first: coefficients up to 9 in size, lifted by
    multiples of the prime p, some groups reusing an earlier coefficient
    tuple, some with a leading coefficient that is 0 modulo p, and about
    half the time a first group of unit rows that makes later leading
    columns meet pivots."""
    ncols = rng.randint(1, 8)
    groups = []
    if rng.random() < 0.5:
        groups.append(((rng.choice([1, -1, 5]),), [[c] for c in rng.sample(range(ncols), rng.randint(1, ncols))]))
    for _ in range(rng.randint(1, 5)):
        if groups and rng.random() < 0.25:
            coeffs = rng.choice(groups)[0]
        else:
            coeffs = [rng.choice([-9, -2, -1, 1, 2, 3, 7]) + rng.choice([0, 0, 0, p, -p, 3 * p, p << 70])
                      for _ in range(rng.randint(0, min(4, ncols)))]
            if coeffs and rng.random() < 0.3:
                coeffs[0] = rng.choice([0, p, 3 * p])
            coeffs = tuple(coeffs)
        rows = []
        for _ in range(rng.randint(0, 4)):
            cols = rng.sample(range(ncols), len(coeffs))
            rest = sorted(cols)[:-1]
            rng.shuffle(rest)
            rows.append(([max(cols)] if cols else []) + rest)
        groups.append((coeffs, rows))
    return _rows(groups)


def test_rank_mod_matches_the_dict_elimination():
    # the same rank and the same zero rows as one dict per row reduced
    # against monic pivots; the groups come back unchanged
    outcomes = set()
    for seed in range(6000):
        rng = random.Random(f"groups:{seed}")
        p = rng.choice([_PRIME, _PRIME, 3, 7])
        groups = _random_groups(rng, p)
        before = repr(groups)
        zeros, want_zeros = [], []
        rank = _rank_mod(groups, p, zeros)
        want = _reference_rank_mod(_dicts(groups), p, want_zeros)
        assert (rank, zeros) == (want, want_zeros), seed
        assert repr(groups) == before, seed
        leads = {coeffs[0] % p for coeffs, rows in groups if coeffs and rows}
        outcomes |= {
            "rank": want > 0,
            "zero rows": bool(want_zeros),
            "lead 0 mod p": 0 in leads,
            "lead 0 mod p, rank": 0 in leads and want > 0,
        }.items()
    assert {name for name, hit in outcomes if hit} == {"rank", "zero rows", "lead 0 mod p", "lead 0 mod p, rank"}


def test_entry_divisible_by_the_prime_is_ranked_exactly(monkeypatch):
    # _PRIME*x0*y0 is zero modulo the prime: its row falls to zero there
    # and the one column has no pivot, so the piece is ranked over Z
    assert _rank_mod(_rows([((_PRIME,), [[0]])]), _PRIME) == 0
    zeros = []
    assert _rank_exact(_rows([((_PRIME,), [[0]])]), zeros) == 1 and zeros == []
    ideal = parse_ideal_text(f"ring x=1 y=1\n{_PRIME}*x0*y0")
    seen = _record_ranks(monkeypatch)
    assert hilbert_dim(ideal, (1, 1)) == 0
    assert hilbert_dim(ideal, (0, 0)) == 1
    assert seen == [(1, _PRIME, 0), (1, "exact", 1), (0, _PRIME, 0)]
    assert ideal.substituted.syzygy_signatures == {}


def test_prime_table():
    # the one prime, below 2^30 so that a residue is one CPython digit; by
    # trial division up to sqrt(2^30)
    assert 2**29 < _PRIME < 2**30
    assert _PRIME % 2 and all(_PRIME % d for d in range(3, isqrt(_PRIME) + 1, 2))


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
    # fewest terms first: a signature's j is a position in this order
    assert [len(g.terms) for g in sub.generators] == sorted(len(g.terms) for g in sub.generators)
    # and hilbert_dim ranks that ideal's matrix: at (2,2), 10 + 4*20 + 1 rows
    # by 10*15 monomials, where the input ideal would give 167 x 210, less
    # the 1 + 2 + 3 rows m*f_j of the (1,1) generators whose multiplier m is
    # the leading monomial of an earlier (1,1) generator; the column count is
    # the returned dimension plus the rank
    seen = set()

    def spy(groups, n, zeros):
        # one group per generator, whose rows share its coefficient tuple,
        # one column per coefficient, and every row's first column is its highest
        assert [sorted(coeffs) for coeffs, _ in groups] == [sorted(c for _, c in g.terms) for g in sub.generators]
        for coeffs, rows in groups:
            for cols in (list(map(add, xs, y)) for xs, y in rows):
                assert len(set(cols)) == len(cols) == len(coeffs)
                assert cols[0] == max(cols) and all(0 <= c < 150 for c in cols)
        rank = _rank_mod(groups, n, zeros)
        seen.add((_row_count(groups), rank))
        return rank

    monkeypatch.setattr(hilbert, "_rank_mod", spy)
    # a fresh ideal: the fixture's may have learned syzygy signatures
    dim = hilbert_dim(IdealSpec(ex41_ideal.ring, ex41_ideal.generators), (2, 2))
    assert dim == 80
    assert {(rows, rank + dim) for rows, rank in seen} == {(85, 150)}


def test_substitution_runs_once_per_ideal(monkeypatch):
    calls = []
    monkeypatch.setattr(hilbert, "_substitute_linear", lambda ideal: calls.append(ideal) or _substitute_linear(ideal))
    ideal = parse_ideal_text("ring x=2 y=3\ny0 - y1\nx0*y2")
    assert [hilbert_dim(ideal, bd) for bd in ((1, 1), (1, 2), (2, 1), (2, 2))] == [3, 4, 4, 5]
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


def test_ring_header_wider_than_the_variable_cap_is_refused(monkeypatch):
    # (1, 1) fits MAX_PIECE_MONOMIALS, but one kind has more variables than
    # MAX_RING_VARIABLES: refused at the header, before any generator is parsed
    assert parse_ideal_text(f"ring x={MAX_RING_VARIABLES} y=200").ring == BiPolyRing(MAX_RING_VARIABLES, 200)
    monkeypatch.setattr(hilbert, "parse_poly", lambda *args: pytest.fail("parsed a generator"))
    for header in ("ring x=1001 y=1", "ring x=1 y=1001"):
        with pytest.raises(ValueError, match=rf"^line 2: {header} has more than {MAX_RING_VARIABLES} variables of one kind$"):
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


def test_indented_generator_reports_its_column():
    # the position counts the indentation: 'x' starts at column 5
    with pytest.raises(ValueError, match=r"^line 3: cannot parse factor 'x' \(at position 5\)$"):
        parse_ideal_text("ring x=2 y=2\n\n  x0*x\n")


def _row_count(groups):
    return sum(len(rows) for _, rows in groups)


def _record_ranks(monkeypatch):
    """Wrap _rank_mod and _rank_exact to record (row count, modulus or
    "exact", rank) of each call."""
    seen = []

    def spy(groups, n, zeros):
        rank = _rank_mod(groups, n, zeros)
        seen.append((_row_count(groups), n, rank))
        return rank

    def exact_spy(groups, zeros):
        rank = _rank_exact(groups, zeros)
        seen.append((_row_count(groups), "exact", rank))
        return rank

    monkeypatch.setattr(hilbert, "_rank_mod", spy)
    monkeypatch.setattr(hilbert, "_rank_exact", exact_spy)
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
        assert hilbert_dim(ideal, (a, b)) == ncols - _rank_mod(rows, _PRIME), (a, b)


def test_example41_4x4_ranks_2347_rows(ex41_ideal, monkeypatch):
    # 3475 rows without the criterion, of rank 1906 over 2450 columns; a
    # fresh ideal, so no syzygy signature learned elsewhere drops a row.
    # 441 rows fall to zero, so the piece is ranked again over Z
    seen = _record_ranks(monkeypatch)
    assert hilbert_dim(IdealSpec(ex41_ideal.ring, ex41_ideal.generators), (4, 4)) == 544
    assert seen == [(2347, _PRIME, 1906), (2347, "exact", 1906)]


def _record_rows(monkeypatch):
    """Wrap _rank_mod to record the rows of each call, each as a dict
    {column: coefficient}."""
    seen = []

    def spy(groups, n, zeros):
        seen.append(_dicts(groups))
        return _rank_mod(groups, n, zeros)

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


def _reference_chi(name, a, b):
    """chi(aH1 + bH2) from the reference data: Schubert calculus for
    example41, the Chow ring for oguiso."""
    if name == "example41":
        tri, c2 = _pfaffian_model_expected()
        tri, c2 = TriForm(*tri), C2Form(*c2)
    else:
        tri, c2 = intersection_data(CIData(MultiProjAmbient((3, 3)), ((1, 1), (1, 1), (2, 2))))
    chi12 = 2 * tri.cube(a, b) + c2.pair(a, b)
    assert chi12 % 12 == 0
    return chi12 // 12


@pytest.mark.parametrize("name", ["example41", "oguiso"])
def test_grid_5_dims_equal_chi(name, ex41_ideal, oguiso_ideal):
    # beyond the fitted grid 1..4: the Hilbert function has stabilized on the
    # Euler cubic of the reference data
    ideal = ex41_ideal if name == "example41" else oguiso_ideal
    for a, b in [(5, 5), (1, 5), (5, 1)]:
        assert hilbert_dim(ideal, (a, b)) == _reference_chi(name, a, b), (a, b)


def _exponents(n, d):
    return [e for e in product(range(d + 1), repeat=n) if sum(e) == d]


def _all_rows(ideal, a, b):
    """Column count and every row m*g of the relation matrix, in generator
    order, with no row dropped: one group (coefficients, [(xs, y), ...]) per
    generator.  The columns run in lex order on (x exponents, y exponents),
    a monomial order, so g's lex-largest term comes first in every row; the
    column of x part u and y part v is ny*(index of u) + (index of v), and
    a row's xs and y are its terms' two summands."""
    ring = ideal.ring
    xs_index = {e: i for i, e in enumerate(_exponents(ring.x_count, a))}
    ys_index = {e: i for i, e in enumerate(_exponents(ring.y_count, b))}
    groups = []
    for g in ideal.generators:
        ga, gb = g.bidegree
        if ga > a or gb > b:
            continue
        terms = sorted(g.terms, reverse=True)
        groups.append((tuple(c for _, c in terms), [
            ([xs_index[tuple(map(sum, zip(xe, xq)))] * len(ys_index) for (xe, _), _ in terms],
             [ys_index[tuple(map(sum, zip(ye, yq)))] for (_, ye), _ in terms])
            for xq, yq in product(_exponents(ring.x_count, a - ga), _exponents(ring.y_count, b - gb))
        ]))
    return len(xs_index) * len(ys_index), groups


def _dim_over_q(ideal, a, b):
    """Monomials minus the rank over Q of the unsubstituted relation matrix,
    by exact echelon reduction of sparse Fraction rows."""
    ncols, groups = _all_rows(ideal, a, b)
    pivots = {}  # column -> reduced row with 1 there
    for row in _dicts(groups):
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


def test_leading_coefficient_divisible_by_the_prime_is_ranked_exactly(monkeypatch):
    # modulo the prime the first generator's leading term x0*y0 vanishes, so
    # the row x0*y0*f_2 that the criterion drops is not in the span of the
    # kept rows mod p: a kept row falls to zero there, and the elimination
    # over Z gives the rank over Q
    ideal = parse_ideal_text(f"ring x=2 y=1\n{_PRIME}*x0*y0 + x1*y0\nx0*y0 + 2*x1*y0")
    seen = _record_ranks(monkeypatch)
    assert hilbert_dim(ideal, (2, 2)) == 0 == _dim_over_q(ideal, 2, 2)
    assert seen == [(3, _PRIME, 2), (3, "exact", 3)]


def _linear_heavy_ideal(rng):
    """Up to one linear form per variable of each kind, over at most 3 + 3
    variables, so some draws kill every variable of a kind; pivot
    coefficients up to 7 in size, a form that is a combination of two
    earlier ones about half the time, and one or two generators of bidegree
    (1, 1), (2, 1) or (1, 2)."""
    ring = BiPolyRing(rng.randint(1, 3), rng.randint(1, 3))
    gens = []
    for ga, gb, count in ((1, 0, ring.x_count), (0, 1, ring.y_count)):
        forms = []
        for _ in range(rng.randint(0, count)):
            support = rng.sample(range(count), rng.randint(1, count))
            forms.append({j: rng.choice([-7, -3, -2, -1, 1, 2, 5]) for j in support})
        if len(forms) > 1 and rng.random() < 0.5:
            f, g = rng.sample(forms, 2)
            forms.append({j: 2 * f.get(j, 0) - 3 * g.get(j, 0) for j in set(f) | set(g)})
        for form in forms:
            terms = {(tuple(int(i == j) for i in range(ring.x_count)) if ga else (0,) * ring.x_count,
                      tuple(int(i == j) for i in range(ring.y_count)) if gb else (0,) * ring.y_count): c
                     for j, c in form.items()}
            if any(terms.values()):
                gens.append(BiPoly.from_dict(ring, terms))
    for ga, gb in rng.sample([(1, 1), (2, 1), (1, 2)], rng.randint(1, 2)):
        terms = {(rng.choice(_exponents(ring.x_count, ga)), rng.choice(_exponents(ring.y_count, gb))):
                 rng.choice([-2, -1, 1, 3]) for _ in range(rng.randint(1, 3))}
        gens.append(BiPoly.from_dict(ring, terms))
    rng.shuffle(gens)
    return IdealSpec(ring, tuple(gens))


def test_several_linear_forms_per_kind_match_exact_rank_over_q():
    covered = set()
    for seed in range(120):
        ideal = _linear_heavy_ideal(random.Random(seed))
        ring, sub = ideal.ring, ideal.substituted
        linear = [[g for g in i.generators if g.bidegree == bd] for i in (ideal, sub) for bd in ((1, 0), (0, 1))]
        eliminated = ring.x_count - sub.ring.x_count + ring.y_count - sub.ring.y_count
        covered |= {
            "both kinds": bool(linear[0] and linear[1]),
            "dependent": len(linear[0] + linear[1]) > eliminated + len(linear[2] + linear[3]),
            "kind killed": bool(linear[2] or linear[3]),
            # a form's first term, in sorted order, holds its last variable
            "pivot not +-1": any(abs(g.terms[0][1]) != 1 for g in linear[0] + linear[1]),
        }.items()
        for a, b in product(range(4), repeat=2):
            assert hilbert_dim(ideal, (a, b)) == _dim_over_q(ideal, a, b), (seed, a, b)
    assert {name for name, hit in covered if hit} == {"both kinds", "dependent", "kind killed", "pivot not +-1"}


def test_chain_of_199_forms_pins_its_dimensions():
    # x0 = x1 = ... = x199 leaves x0*y0 over ring x=1 y=2
    ideal = parse_ideal_text("ring x=200 y=2\nx0*y0\n" + "\n".join(f"x{i} - x{i + 1}" for i in range(199)))
    assert ideal.substituted == parse_ideal_text("ring x=1 y=2\nx0*y0")
    dims = {bd: hilbert_dim(ideal, bd) for bd in [(0, 3), (1, 0), (1, 1), (2, 1), (1, 3), (2, 2)]}
    assert dims == {(0, 3): 4, (1, 0): 1, (1, 1): 1, (2, 1): 1, (1, 3): 1, (2, 2): 1}


def test_rank_mod_takes_rows_in_order_and_lists_the_zero_rows():
    # row 2 is row 0 less row 1 and row 3 is twice row 0; taken shortest
    # first, row 0 would reduce to zero instead of row 2
    rows = _rows([((1, 1, 1), [[2, 1, 0]]), ((1,), [[0]]), ((1, 1), [[2, 1]]), ((2, 2, 2), [[2, 1, 0]])])
    for rank in (lambda zeros: _rank_mod(rows, _PRIME, zeros), lambda zeros: _rank_exact(rows, zeros)):
        zeros = []
        assert rank(zeros) == 2
        assert zeros == [2, 3]


def test_example41_4x4_after_grid_4_ranks_1906_rows(ex41_ideal, monkeypatch):
    # the syzygy signatures grid 4 learns drop every row that would reduce
    # to zero: the warm (4, 4) ranks exactly its rank in rows
    ideal = IdealSpec(ex41_ideal.ring, ex41_ideal.generators)
    for bd in default_sample_grid(4):
        hilbert_dim(ideal, bd)
    seen = _record_ranks(monkeypatch)
    assert hilbert_dim(ideal, (4, 4)) == 544
    assert seen == [(1906, _PRIME, 1906)]


def _mul(m, n):
    return tuple(map(add, m[0], n[0])), tuple(map(add, m[1], n[1]))


def _signature_rows(ideal, a, b):
    """Every row m*f_j of the bidegree (a, b) piece as ((j, m), (coefficients,
    [(xs, y)])), in signature order: j the position of f_j in ideal's
    generators, then the multiplier m in the column order.  The rows of f_j
    share one coefficient tuple, its leading term first."""
    nx, ny = ideal.ring.x_count, ideal.ring.y_count
    index = {c: i for i, c in enumerate(_column_order(nx, ny, a, b))}
    rows = []
    for j, g in enumerate(ideal.generators):
        ga, gb = g.bidegree
        if ga <= a and gb <= b:
            terms = sorted(g.terms, key=lambda t: _column_key(t[0]), reverse=True)
            coeffs = tuple(c for _, c in terms)
            rows.extend(((j, m), _rows([(coeffs, [[index[_mul(m, mono)] for mono, _ in terms]])])[0])
                        for m in _column_order(nx, ny, a - ga, b - gb))
    return rows


def _divides(s, m):
    return all(u <= v for u, v in zip(s[0] + s[1], m[0] + m[1]))


def _check_signatures(ideal):
    """Each learned signature (j, m) is a syzygy signature: the row m*f_j
    lies in the span over Q of the rows of smaller signature.  And no
    multiplier learned for f_j divides another."""
    sub = ideal.substituted
    for j, multipliers in sub.syzygy_signatures.items():
        for m in multipliers:
            assert [n for n in multipliers if _divides(n, m)] == [m], (j, multipliers)
            (ga, gb), (ma, mb) = sub.generators[j].bidegree, (sum(m[0]), sum(m[1]))
            rows = _signature_rows(sub, ga + ma, gb + mb)
            k = [sig for sig, _ in rows].index((j, m))
            zeros = []
            _rank_exact([row for _, row in rows[:k + 1]], zeros)
            assert zeros[-1:] == [k], (j, m)


def _syzygy_ideal(rng):
    """Two or three multiples u*v_i of one form u, whose syzygies
    v_k*(u*v_i) - v_i*(u*v_k) are not Koszul, and sometimes a combination
    t*f_i + f_k of them, over a ring of at most 3 + 3 variables; small
    coefficients, up to three terms per factor."""
    ring = BiPolyRing(rng.randint(1, 3), rng.randint(1, 3))

    def form(ga, gb):
        return {(rng.choice(_exponents(ring.x_count, ga)), rng.choice(_exponents(ring.y_count, gb))):
                rng.choice([-2, -1, 1, 3]) for _ in range(rng.randint(1, 3))}

    def product_of(f, g):
        out = {}
        for m, c in f.items():
            for n, d in g.items():
                out[_mul(m, n)] = out.get(_mul(m, n), 0) + c * d
        return out

    u = form(*rng.choice([(0, 0), (1, 0), (0, 1), (1, 1)]))
    gens = [product_of(u, form(*rng.choice([(1, 0), (0, 1), (1, 1)]))) for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.5:
        f, g = rng.sample(gens, 2)
        (fa, fb), (ga, gb) = (next((sum(x), sum(y)) for x, y in h) for h in (f, g))
        if fa <= ga and fb <= gb:
            t = form(ga - fa, gb - fb)
            gens.append(product_of(t, f))
            for m, v in g.items():
                gens[-1][m] = gens[-1].get(m, 0) + v
    return IdealSpec(ring, tuple(BiPoly.from_dict(ring, g) for g in gens if any(g.values())))


def test_learned_signatures_keep_every_rank():
    # rank the grid twice in one shuffled order: the first pass learns
    # syzygy signatures, the second drops the rows they divide; every
    # dimension is the column count less the rank of all the rows
    learned = 0
    for seed in range(40):
        rng = random.Random(f"syzygy:{seed}")
        ideal = _syzygy_ideal(rng)
        grid = list(product(range(4), repeat=2))
        rng.shuffle(grid)
        for a, b in grid + grid:
            ncols, rows = _all_rows(ideal.substituted, a, b)
            dim = hilbert_dim(ideal, (a, b))
            assert dim == ncols - _rank_mod(rows, _PRIME), (seed, a, b)
            if a + b <= 3:
                assert dim == _dim_over_q(ideal, a, b), (seed, a, b)
        _check_signatures(ideal)
        learned += bool(ideal.substituted.syzygy_signatures)
    assert learned >= 20


def _exponents_dividing(e, d):
    return [f for f in product(*(range(k + 1) for k in e)) if sum(f) == d]


def _learn_beside_a_reference(ideal, order, monkeypatch):
    """Rank the pieces of a fresh copy of ideal in order, and beside
    hilbert_dim's store keep a reference one that records the generator j
    of each kept row and takes each zero row's signature (j, m) from the
    row itself: m is the gcd of its monomials over the gcd of f_j's terms.
    The zero rows of each rank over Z are learned, dropping the learned
    multipliers they divide.  After each call the two stores must be equal.
    Returns the number of multipliers learned."""
    ideal = IdealSpec(ideal.ring, ideal.generators)
    sub = ideal.substituted
    nx, ny = sub.ring.x_count, sub.ring.y_count
    reference, found, piece = {}, [], []

    def spy(groups, zeros):
        rank = _rank_exact(groups, zeros)
        a, b = piece
        xs, ys = (sorted(_exponents(n, d), key=cmp_to_key(_grevlex_cmp)) for n, d in ((nx, a), (ny, b)))
        gens = [(j, g) for j, g in enumerate(sub.generators) if g.bidegree[0] <= a and g.bidegree[1] <= b]
        kept = [(j, g, row) for (j, g), (_, rows) in zip(gens, groups) for row in rows]
        for j, g, (row_x, row_y) in map(kept.__getitem__, zeros):
            monos = [xs[c // len(ys)] + ys[c % len(ys)] for c in map(add, row_x, row_y)]
            low = [min(e) for e in zip(*(xe + ye for (xe, ye), _ in g.terms))]
            m = [min(e) - least for e, least in zip(zip(*monos), low)]
            found.append((j, (tuple(m[:nx]), tuple(m[nx:]))))
        return rank

    monkeypatch.setattr(hilbert, "_rank_exact", spy)
    for bd in order:
        piece[:], found[:] = bd, []
        hilbert_dim(ideal, bd)
        for j in {j for j, _ in found}:
            ms = {m for i, m in found if i == j}
            dx, dy = map(sum, next(iter(ms)))
            reference[j] = [s for s in reference.get(j, []) if not any(
                (u, v) in ms for u in _exponents_dividing(s[0], dx) for v in _exponents_dividing(s[1], dy))] + sorted(ms)
        assert _store(ideal) == {j: sorted(ms) for j, ms in reference.items()}, bd
    return sum(map(len, reference.values()))


@pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
@pytest.mark.parametrize("name, count", [("example41", 8), ("oguiso", 1)])
def test_signatures_read_off_the_leading_column_match_each_rows_own(name, count, order, ex41_ideal, oguiso_ideal,
                                                                    monkeypatch):
    # no row carries its signature: a zero row's multiplier is read off its
    # highest column, against the leading monomial of its own generator
    grid = default_sample_grid(6)
    grid = {"increasing": grid, "decreasing": grid[::-1], "shuffled": random.Random(6).sample(grid, len(grid))}[order]
    base = ex41_ideal if name == "example41" else oguiso_ideal
    assert _learn_beside_a_reference(base, grid, monkeypatch) == count


def test_signatures_read_off_the_leading_column_on_syzygy_ideals(monkeypatch):
    # f_3 = y0*f_2 and y1*f_4 are zero rows at (1, 2), a piece that leaves
    # f_0 out, so their groups' positions are 2 and 3, not 3 and 4
    ideal = parse_ideal_text("ring x=2 y=2\nx0^2*y0\nx0*y0\nx1*y1 + x0*y1\nx1*y0*y1 + x0*y0*y1\nx0*y1 + x1*y0 + x1*y1")
    assert _learn_beside_a_reference(ideal, [(1, 2)], monkeypatch) == 2
    learned = 0
    for seed in range(40):
        rng = random.Random(f"syzygy:{seed}")
        ideal = _syzygy_ideal(rng)
        grid = list(product(range(4), repeat=2))
        rng.shuffle(grid)
        learned += bool(_learn_beside_a_reference(ideal, grid, monkeypatch))
    assert learned >= 20


@pytest.mark.parametrize("name, count", [("example41", 8), ("oguiso", 1)])
def test_grid_order_learns_the_same_minimal_signatures(name, count, ex41_ideal, oguiso_ideal):
    # increasing, decreasing and shuffled grid 4 give the same dimensions
    # and the same antichain of syzygy signatures, each a true one
    base = ex41_ideal if name == "example41" else oguiso_ideal
    grid = default_sample_grid(4)
    outcomes = []
    for order in (grid, grid[::-1], random.Random(name).sample(grid, len(grid))):
        ideal = IdealSpec(base.ring, base.generators)
        dims = {bd: hilbert_dim(ideal, bd) for bd in order}
        assert dims == {(a, b): _reference_chi(name, a, b) for a, b in grid}
        _check_signatures(ideal)
        outcomes.append({j: sorted(ms) for j, ms in ideal.substituted.syzygy_signatures.items()})
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert sum(map(len, outcomes[0].values())) == count


def test_only_rows_zero_over_q_are_learned():
    # modulo the prime the rows of f_0 = p*x0*y0 are zero; learning them
    # would drop every row of f_0.  Over Z only x0*f_1 = x0*f_0 + x1*f_0/p
    # is zero, the one row in the span of the rows before it
    ideal = parse_ideal_text(f"ring x=2 y=1\n{_PRIME}*x0*y0\n{_PRIME}*x0*y0 + x1*y0")
    for a, b in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        assert hilbert_dim(ideal, (a, b)) == 0 == _dim_over_q(ideal, a, b), (a, b)
    assert ideal.substituted.syzygy_signatures == {1: [((1, 0), (0,))]}


@pytest.mark.parametrize(
    "coefficient, learned",
    [(2147483647 * 2147483629 + 1, {}), (_PRIME + 1, {1: [((0,), (1, 0))]})],
    ids=["1+pq", "1+p"],
)
def test_generator_congruent_to_another_keeps_its_rows(coefficient, learned):
    # f_1 = x0*y0 + c*x0*y1 with c = 1 modulo a prime is f_0 there, and is
    # not a multiple of f_0 over Q; the ideal is x0*(y0, y1).  Learning f_1's
    # zero row as the syzygy 1*f_1 would drop all of f_1's rows and leave
    # dimension 1 at each piece.  c = 1 + _PRIME makes f_1's rows zero mod
    # the prime, so the pieces are ranked over Z, which learns only the true
    # syzygy (y0 + c*y1)*f_0 - (y0 + y1)*f_1 at (1, 2)
    ideal = parse_ideal_text(f"ring x=1 y=2\nx0*y0 + x0*y1\nx0*y0 + {coefficient}*x0*y1")
    for a, b in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        assert hilbert_dim(ideal, (a, b)) == 0 == _dim_over_q(ideal, a, b), (a, b)
    assert ideal.substituted.syzygy_signatures == learned
    _check_signatures(ideal)


def test_pivots_filling_every_column_learn_nothing(monkeypatch):
    # modulo the prime the rows of f_0 = p*x0*y1 are zero, yet at (1, 1),
    # (2, 1) and (1, 2) the pivots of f_1 = x0*y0 and f_2 = x0*y1 fill every
    # column: the rank over Q is the column count with no elimination over
    # Z, and the zero rows, which are not zero over Q, are not learned.  At
    # (2, 2) the criterion keeps f_0's rows and one of f_1's, so that piece
    # is ranked over Z, where no row is zero
    ideal = parse_ideal_text(f"ring x=1 y=2\n{_PRIME}*x0*y1\nx0*y0\nx0*y1")
    seen = _record_ranks(monkeypatch)
    for a, b in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        assert hilbert_dim(ideal, (a, b)) == 0 == _dim_over_q(ideal, a, b), (a, b)
    assert seen == [(3, _PRIME, 2), (3, _PRIME, 2), (6, _PRIME, 3), (3, _PRIME, 1), (3, "exact", 3)]
    assert ideal.substituted.syzygy_signatures == {}


def _count_false_zero_rows(monkeypatch):
    """Wrap _rank_exact to count the pieces it ranks whose zero rows modulo
    hilbert._PRIME are not all zero over Q."""
    pieces = []

    def spy(groups, zeros):
        rank = _rank_exact(groups, zeros)
        mod_p = []
        _rank_mod(groups, hilbert._PRIME, mod_p)
        pieces.append(mod_p != zeros)
        return rank

    monkeypatch.setattr(hilbert, "_rank_exact", spy)
    return pieces


@pytest.mark.parametrize("prime", [3, 7])
def test_small_prime_with_false_zero_rows_keeps_every_dimension_exact(prime, monkeypatch):
    # the ideals of test_hilbert_dim_matches_exact_rank_over_q, ranked with
    # a prime small enough that rows fall to zero mod p and not over Q: 80
    # pieces are ranked over Z mod 3 and 25 mod 7
    monkeypatch.setattr(hilbert, "_PRIME", prime)
    pieces = _count_false_zero_rows(monkeypatch)
    for seed in range(40):
        test_hilbert_dim_matches_exact_rank_over_q(seed)
    assert sum(pieces) == {3: 77, 7: 22}[prime]


def _store(ideal):
    """The learned signatures of ideal, each generator's sorted."""
    return {j: sorted(ms) for j, ms in ideal.substituted.syzygy_signatures.items()}


@pytest.mark.parametrize("prime", [3, 5, 7])
@pytest.mark.parametrize("name", ["example41", "oguiso"])
def test_small_prime_gives_the_same_grid_4_and_signatures(name, prime, ex41_ideal, oguiso_ideal, monkeypatch):
    # increasing, decreasing and shuffled grid 4 with a small prime give the
    # dimensions and the signature store of the module's prime
    base = ex41_ideal if name == "example41" else oguiso_ideal
    grid = default_sample_grid(4)
    ideal = IdealSpec(base.ring, base.generators)
    want = {bd: hilbert_dim(ideal, bd) for bd in grid}, _store(ideal)
    monkeypatch.setattr(hilbert, "_PRIME", prime)
    for order in (grid, grid[::-1], random.Random(prime).sample(grid, len(grid))):
        ideal = IdealSpec(base.ring, base.generators)
        dims = {bd: hilbert_dim(ideal, bd) for bd in order}
        assert (dims, _store(ideal)) == want, order


def test_second_pass_never_ranks_over_z(ex41_ideal, oguiso_ideal, monkeypatch):
    # after one shuffled grid-4 pass the learned signatures drop every row
    # that would fall to zero, so a second pass in another order is proved
    # by the pivot count alone
    grid = default_sample_grid(4)
    rng = random.Random(4)
    for base in (ex41_ideal, oguiso_ideal):
        ideal = IdealSpec(base.ring, base.generators)
        seen = _record_ranks(monkeypatch)
        dims = {bd: hilbert_dim(ideal, bd) for bd in rng.sample(grid, len(grid))}
        assert any(modulus == "exact" for _, modulus, _ in seen)
        monkeypatch.setattr(hilbert, "_rank_exact", lambda *args: pytest.fail("ranked over Z"))
        for bd in rng.sample(grid, len(grid)):
            assert hilbert_dim(ideal, bd) == dims[bd], bd

"""The integer decisions of the property suites, pinned sample by sample to
the QuadNum computations they stand for, and one injected fault per suite."""

import collections
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from movcone.cones import (
    Dynamics,
    LatticeMap,
    SigmaData,
    _eigen_numerators,
    area_coordinate,
    eigen_coords,
    slope_coordinate,
)
from movcone import properties
from movcone.exact import QuadNum, quad_floor, quad_sign
from movcone.properties import (
    _area,
    _bracketed,
    _cls,
    _lam_ints,
    _movable,
    _slope_scaled,
    area_invariance,
    cone_membership,
    floor_bracketing,
    slope_scaling,
    wall_crossing_sandwich,
)

MODELS = ["ex41", "oguiso", "synthetic"]


def _convergents(x: QuadNum, count: int):
    """The first count continued-fraction convergents (h, k) of x."""
    (h0, h1), (k0, k1) = (0, 1), (1, 0)
    for _ in range(count):
        a = x.floor()
        (h0, h1), (k0, k1) = (h1, a * h1 + h0), (k1, a * k1 + k0)
        yield h1, k1
        x = (x - a).inverse()


def _near_rays(s):
    """+-(h, k) for the convergents h/k of both eigenrays' slopes p/q (q = +-1):
    the integer classes where one eigen-coordinate is smallest."""
    for ray in (s.ray1, s.ray2):
        for h, k in _convergents(ray.p / ray.q, 12):
            yield h, k
            yield -h, -k


@pytest.mark.parametrize("name", MODELS)
def test_area_decision_matches_area_coordinate(name, request):
    dyn = request.getfixturevalue(name)
    s, sig, n = dyn.sigma, dyn.model.sigma, dyn.sigma.dual[0]
    vs = list(_movable(dyn, random.Random(71), 300)) + [(0, 0)]
    outcomes = collections.Counter()
    for i, v in enumerate(vs):
        ref = area_coordinate(_cls(v), s)
        assert _area(v, s) == (ref.a * n * n, ref.b * n * n), v
        for w in (sig.apply_pair(v), vs[i - 1], (0, 0)):
            decided = _area(w, s) == _area(v, s)
            assert decided == (area_coordinate(_cls(w), s) == ref), (v, w)
            outcomes[decided] += 1
    assert min(outcomes.values()) > 250, outcomes


@pytest.mark.parametrize("name", MODELS)
def test_slope_decision_matches_slope_coordinate(name, request):
    dyn = request.getfixturevalue(name)
    s, sig = dyn.sigma, dyn.model.sigma
    lam2 = s.eigenvalue**2
    # slope_scaling's integer 4*lambda^2, built from (tr, k, d), is the QuadNum one
    tr, k, d = _lam_ints(s.eigenvalue)
    lam4 = tr * tr + k * k * d, 2 * tr * k
    assert QuadNum(*lam4, d) == 4 * lam2
    vs = list(_movable(dyn, random.Random(73), 300))
    outcomes = collections.Counter()
    for i, v in enumerate(vs):
        scaled = lam2 * slope_coordinate(_cls(v), s)
        for w in (sig.apply_pair(v), sig.pow(2).apply_pair(v), sig.inverse().apply_pair(v), vs[i - 1]):
            decided = _slope_scaled(v, w, s, lam4)
            assert decided == (slope_coordinate(_cls(w), s) == scaled), (v, w)
            outcomes[decided] += 1
    assert outcomes[True] >= 300 and outcomes[False] >= 900, outcomes
    # the suite's classes are sigma^k (p, q) with p, q >= 1, never the zero
    # class, on which the slope is undefined
    with pytest.raises(ZeroDivisionError):
        slope_coordinate(_cls((0, 0)), s)


def _quadnum_sandwich(val: QuadNum, ref: QuadNum, lam: QuadNum) -> bool:
    return val.compare(ref * lam.conjugate()) > 0 and val.compare(ref * lam) < 0


def _scripted(draws):
    """A stand-in for random.Random whose randint hands out draws in order."""
    it = iter(draws)
    return SimpleNamespace(randint=lambda lo, hi: next(it))


@pytest.mark.parametrize("name", ["ex41", "oguiso"])
def test_sandwich_suite_matches_quadnum_compare(name, request):
    # the suite itself decides one scripted draw (n1, m1, n2, m2) at a time,
    # v = (n1/m1)*ray1 + (n2/m2)*ray2, with tau2 and, so that the decision
    # goes both ways, 7*tau2 and two other integer maps in its place; the
    # draws are the suite's, classes on both domain rays and the zero class
    dyn = request.getfixturevalue(name)
    s, lam, model = dyn.sigma, dyn.sigma.eigenvalue, dyn.model
    (p1, q1), (p2, q2) = dyn.pi
    rng = random.Random(79)
    draws = [[rng.randint(1, 99), rng.randint(1, 9), rng.randint(1, 99), rng.randint(1, 9)] for _ in range(200)]
    draws += [[c, 1, 0, 1] for c in range(1, 20)] + [[0, 1, c, 1] for c in range(1, 20)] + [[0, 1, 0, 1]]
    outcomes = collections.Counter()
    t = model.tau2
    for tau in (t, LatticeMap(7 * t.a, 7 * t.b, 7 * t.c, 7 * t.d), LatticeMap(2, 1, 1, 1), LatticeMap(1, -3, 2, 1)):
        mirrored = Dynamics(SimpleNamespace(tau2=tau), s, dyn.pi)
        for n1, m1, n2, m2 in draws:
            decided = wall_crossing_sandwich(mirrored, _scripted([n1, m1, n2, m2]), 1) is None
            v = Fraction(n1, m1) * p1 + Fraction(n2, m2) * p2, Fraction(n1, m1) * q1 + Fraction(n2, m2) * q2
            reference = _quadnum_sandwich(area_coordinate(_cls(tau.apply_pair(v)), s), area_coordinate(_cls(v), s), lam)
            assert decided == reference, (tau, v)
            outcomes[tau is model.tau2, decided] += 1
    assert outcomes[True, True] == 238 and outcomes[True, False] == 1, outcomes
    assert min(outcomes[False, True], outcomes[False, False]) > 200, outcomes


@pytest.mark.parametrize("name", MODELS)
def test_membership_suite_matches_eigen_coord_signs(name, request):
    # the signs one by one, and the suite's verdict on the same classes,
    # handed to it as its draws
    dyn = request.getfixturevalue(name)
    s, d = dyn.sigma, dyn.sigma.eigenvalue.d
    rng = random.Random(83)
    ws = [(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(300)] + [(0, 0)] + list(_near_rays(s))
    outcomes = collections.Counter()
    for w in ws:
        A1, B1, A2, B2, n = _eigen_numerators(w, s)
        signs = quad_sign(A1, B1, d), quad_sign(A2, B2, d)
        assert n > 0 and signs == tuple(a.compare(0) for a in eigen_coords(_cls(w), s)), w
        outcomes[signs] += 1
    assert min(outcomes[1, 1], outcomes[-1, -1], outcomes[1, -1], outcomes[-1, 1]) > 10, outcomes
    assert cone_membership(dyn, _scripted([x for w in ws for x in w]), len(ws)) is None


def test_convergents_come_close_to_the_eigenrays(ex41):
    # the tight cases above: on example41 the last two convergents of each
    # eigenray have an eigen-coordinate below 10^-5 in absolute value
    s = ex41.sigma
    smallest = [min(abs(float(a)) for a in eigen_coords(_cls(w), s)) for w in _near_rays(s)]
    assert len(smallest) == 48 and max(smallest[20:24] + smallest[44:48]) < 1e-5


def _bracketed_by_compare(x: QuadNum, f: int) -> bool:
    return x.compare(f) >= 0 and x.compare(f + 1) < 0


@pytest.mark.parametrize("name", MODELS)
def test_floor_bracket_matches_quadnum_compare(name, request):
    # the suite's draws, and x = m +- (sqrt(d) - h/k) for the convergents h/k
    # of sqrt(d), within 1/k^2 of the integer m; each x is tried against
    # its floor and the integers either side
    dyn = request.getfixturevalue(name)
    radicands = [2, 3, 5, dyn.sigma.eigenvalue.d]
    rng = random.Random(89)
    xs = [QuadNum(0), QuadNum(7), QuadNum(Fraction(-7, 3))]
    for _ in range(300):
        a = Fraction(rng.randint(-9000, 9000), rng.randint(1, 50))
        b = Fraction(rng.randint(-900, 900), rng.randint(1, 50))
        xs.append(QuadNum(a, b, rng.choice(radicands)))
    for d in radicands:
        for h, k in _convergents(QuadNum(0, 1, d), 10):
            for m in (-3, 0, 5):
                xs += [QuadNum(Fraction(m * k - h, k), 1, d), QuadNum(Fraction(m * k + h, k), -1, d)]
    outcomes = collections.Counter()
    for x in xs:
        p, q, n = x.numerators()
        for f in (x.floor() - 1, x.floor(), x.floor() + 1):
            decided = _bracketed(p, q, x.d, n, f)
            assert decided == _bracketed_by_compare(x, f), (x, f)
            outcomes[decided] += 1
    assert outcomes[True] == len(xs) and outcomes[False] == 2 * len(xs), outcomes


def _w1_conjugated(dyn: Dynamics) -> Dynamics:
    """dyn with the sqrt(d) part of the dual basis vector w1 negated."""
    s = dyn.sigma
    n, (w1_rational, (x1, y1), w2_rational, w2_sqrt) = s.dual
    dual = n, (w1_rational, (-x1, -y1), w2_rational, w2_sqrt)
    return Dynamics(dyn.model, SigmaData(s.eigenvalue, s.ray1, s.ray2, dual), dyn.pi)


@pytest.mark.parametrize("name", MODELS)
def test_a_wrong_dual_basis_fails_every_eigen_suite(name, request):
    dyn = _w1_conjugated(request.getfixturevalue(name))
    suites = [
        (area_invariance, "area changed under sigma for"),
        (slope_scaling, "slope scaling violated for"),
        (cone_membership, "cone membership inconsistent for"),
    ]
    if dyn.model.has_involutions:
        suites.append((wall_crossing_sandwich, "wall-crossing area sandwich violated for"))
    for suite, message in suites:
        assert (suite(dyn, random.Random(97), 200) or "").startswith(message), suite.__name__


def test_a_floor_one_too_small_fails_floor_bracketing(ex41, monkeypatch):
    monkeypatch.setattr(properties, "quad_floor", lambda *args: quad_floor(*args) - 1)
    assert (floor_bracketing(ex41, random.Random(101), 200) or "").startswith("floor bracketing violated for")


@pytest.mark.parametrize("name", MODELS)
def test_movable_classes_keep_their_draws(name, request):
    # the table of sigma powers changes no draw: the same classes as
    # sigma.pow(k) computed for every class
    dyn = request.getfixturevalue(name)
    model, rng, expected = dyn.model, random.Random(107), []
    for _ in range(100):
        base = rng.randint(1, 80), rng.randint(1, 80)
        v = model.sigma.pow(rng.randint(-4, 4)).apply_pair(base)
        expected.append(model.tau2.apply_pair(v) if model.has_involutions and rng.random() < 0.5 else v)
    assert list(_movable(dyn, random.Random(107), 100)) == expected

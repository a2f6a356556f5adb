"""Randomized property suites for the exact invariants of the sigma/tau action,
shared by `movcone verify` and the tests.  Each suite takes prepared dynamics,
a random.Random and a count, and returns None or a description of the first
violating case."""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .cones import DivisorClass, Dynamics, _eigen_numerators, _same_open_cone
from .exact import QuadNum, quad_floor, quad_sign
from .riemann_roch import h0_movable


def _cls(pair) -> DivisorClass:
    """The class of an integer or Fraction pair."""
    return DivisorClass(*map(QuadNum, pair))


def _mul(x, y, d: int) -> tuple[int, int]:
    """(a + b*sqrt(d)) * (c + e*sqrt(d)) for integer pairs x = (a, b), y = (c, e)."""
    (a, b), (c, e) = x, y
    return a * c + d * b * e, a * e + b * c


def _area(v, s) -> tuple[int, int]:
    """n^2 * a1*a2 of the integer pair v as an integer pair; n is the same for all v."""
    A1, B1, A2, B2, _ = _eigen_numerators(v, s)
    return _mul((A1, B1), (A2, B2), s.eigenvalue.d)


def _lam_ints(lam: QuadNum) -> tuple[int, int, int]:
    """(tr, k, d) with lam = (tr + k*sqrt(d))/2: the eigenvalue is an algebraic integer."""
    return int(2 * lam.a), int(2 * lam.b), lam.d


def _slope_scaled(v, w, s, lam4: tuple[int, int]) -> bool:
    """slope(w) = lambda^2 * slope(v) for integer pairs with a2 != 0: 4*a1(w)*a2(v) = lam4*a1(v)*a2(w), lam4 = 4*lambda^2."""
    (A1, B1, A2, B2, _), (C1, D1, C2, D2, _), d = _eigen_numerators(v, s), _eigen_numerators(w, s), s.eigenvalue.d
    return _mul((4 * C1, 4 * D1), (A2, B2), d) == _mul(_mul(lam4, (A1, B1), d), (C2, D2), d)


def _bracketed(p: int, q: int, d: int, n: int, f: int) -> bool:
    """f <= x < f + 1 for x = (p + q*sqrt(d)) / n, n > 0: n*(x - f) = (p - f*n) + q*sqrt(d)."""
    return quad_sign(p - f * n, q, d) >= 0 and quad_sign(p - (f + 1) * n, q, d) < 0


def _movable(dyn: Dynamics, rng: Random, count: int):
    """count classes sigma^k (p, q) for k in [-4, 4] (one table of powers), p, q
    in [1, 80]; tau2-mirrored half the time when the model has involutions."""
    model, powers = dyn.model, {k: dyn.model.sigma.pow(k) for k in range(-4, 5)}
    for _ in range(count):
        base = rng.randint(1, 80), rng.randint(1, 80)
        v = powers[rng.randint(-4, 4)].apply_pair(base)
        yield model.tau2.apply_pair(v) if model.has_involutions and rng.random() < 0.5 else v


def area_invariance(dyn: Dynamics, rng: Random, count: int) -> str | None:
    """The area a1*a2 is sigma-invariant."""
    for v in _movable(dyn, rng, count):
        if _area(dyn.model.sigma.apply_pair(v), dyn.sigma) != _area(v, dyn.sigma):
            return f"area changed under sigma for {_cls(v)}"
    return None


def slope_scaling(dyn: Dynamics, rng: Random, count: int) -> str | None:
    """sigma scales the slope a1/a2 by lambda^2."""
    tr, k, d = _lam_ints(dyn.sigma.eigenvalue)
    lam4 = tr * tr + k * k * d, 2 * tr * k  # 4*lambda^2 = (tr + k*sqrt(d))^2
    for v in _movable(dyn, rng, count):
        if not _slope_scaled(v, dyn.model.sigma.apply_pair(v), dyn.sigma, lam4):
            return f"slope scaling violated for {_cls(v)}"
    return None


def _sandwiched(val: int | Fraction, ref: int | Fraction, tr: int, k: int, d: int) -> bool:
    """ref*conj(lam) < val < ref*lam for lam = (tr + k*sqrt(d))/2, k > 0: ref > 0, |2*val - tr*ref| < k*sqrt(d)*ref."""
    return ref > 0 and (2 * val - tr * ref) ** 2 < k * k * d * ref * ref


def wall_crossing_sandwich(dyn: Dynamics, rng: Random, count: int) -> str | None:
    """tau2 moves the area of a rational class of the domain by less than a
    factor lambda either way; needs the involutions.  Homogeneous, so decided on
    the integer pair m1*m2*v for v = (n1/m1)*ray1 + (n2/m2)*ray2."""
    s, tau2, ((p1, q1), (p2, q2)) = dyn.sigma, dyn.model.tau2, dyn.pi
    lam = _lam_ints(s.eigenvalue)
    for _ in range(count):
        n1, m1 = rng.randint(1, 99), rng.randint(1, 9)
        n2, m2 = rng.randint(1, 99), rng.randint(1, 9)
        w = n1 * m2 * p1 + n2 * m1 * p2, n1 * m2 * q1 + n2 * m1 * q2
        if not _sandwiched(_area(tau2.apply_pair(w), s)[0], _area(w, s)[0], *lam):
            return f"wall-crossing area sandwich violated for {_cls(Fraction(x, m1 * m2) for x in w)}"
    return None


def section_count_word_invariance(dyn: Dynamics, rng: Random, count: int) -> str | None:
    """h0 is unchanged along words of 1 to 6 letters sigma, sigma^-1 and,
    when the model has them, tau1, tau2.  The classes are images of nef
    classes, so they reduce into the nef cone on every model."""
    model, s, pi = dyn.model, dyn.sigma, dyn.pi
    letters = [model.sigma, model.sigma.inverse()]
    if model.has_involutions:
        letters += [model.tau1, model.tau2]
    for v in _movable(dyn, rng, count):
        moved = v
        for _ in range(rng.randint(1, 6)):
            moved = rng.choice(letters).apply_pair(moved)
        if h0_movable(model, s, pi, _cls(moved))[0] != h0_movable(model, s, pi, _cls(v))[0]:
            return f"section count changed along a word for {_cls(v)}"
    return None


def chi_integrality(dyn: Dynamics, rng: Random, count: int) -> str | None:
    """chi is integral on a*nef1 + b*nef2 for a, b in range(count); rng is
    unused, the grid is fixed."""
    for a in range(count):
        for b in range(count):
            chi = dyn.model.chi(a, b)
            if chi.denominator != 1:
                return f"chi({a},{b}) = {chi} is not an integer"
    return None


def floor_bracketing(dyn: Dynamics, rng: Random, count: int) -> str | None:
    """floor(x) <= x < floor(x) + 1 for exact.quad_floor in Q(sqrt(d)), d = 2, 3, 5 or the model's."""
    radicands = [2, 3, 5, dyn.sigma.eigenvalue.d]
    for _ in range(count):
        a = Fraction(rng.randint(-9000, 9000), rng.randint(1, 50))
        b = Fraction(rng.randint(-900, 900), rng.randint(1, 50))
        x = QuadNum(a, b, rng.choice(radicands))
        p, q, n = x.numerators()
        if not _bracketed(p, q, x.d, n, quad_floor(p, q, x.d, n)):
            return f"floor bracketing violated for {x}"
    return None


def cone_membership(dyn: Dynamics, rng: Random, count: int) -> str | None:
    """Membership in the closed movable cone, decided by integer signs, agrees
    with the signs of the eigen-coordinates.  The eigenrays are irrational, so
    an integral class lies in the closed cone exactly when it is 0 or lies in
    the open cone that holds u = (1, 1)."""
    sig, s, d = dyn.model.sigma, dyn.sigma, dyn.sigma.eigenvalue.d
    u, su = (1, 1), sig.apply_pair((1, 1))
    for _ in range(count):
        w = rng.randint(-40, 40), rng.randint(-40, 40)
        inside = w == (0, 0) or _same_open_cone(u, su, w, sig.apply_pair(w))
        A1, B1, A2, B2, _ = _eigen_numerators(w, s)  # over n > 0
        if inside != (min(quad_sign(A1, B1, d), quad_sign(A2, B2, d)) >= 0):
            return f"cone membership inconsistent for {_cls(w)}"
    return None

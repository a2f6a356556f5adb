"""Randomized property suites for the exact invariants of the sigma/tau action,
shared by `movcone verify` and the tests.  Each suite takes prepared dynamics,
a random.Random and a count, and returns None or a description of the first
violating case."""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .cones import (
    DivisorClass,
    Dynamics,
    _same_open_cone,
    area_coordinate,
    eigen_coords,
    slope_coordinate,
)
from .exact import QuadNum
from .riemann_roch import h0_movable


def _cls(pair) -> DivisorClass:
    """The class of an integer or Fraction pair."""
    return DivisorClass(*map(QuadNum, pair))


def _movable(dyn: Dynamics, rng: Random) -> tuple[int, int]:
    """sigma^k (p, q) for k in [-4, 4], p, q in [1, 80]; tau2-mirrored half
    the time when the model has involutions."""
    model = dyn.model
    base = rng.randint(1, 80), rng.randint(1, 80)
    v = model.sigma.pow(rng.randint(-4, 4)).apply_pair(base)
    return model.tau2.apply_pair(v) if model.has_involutions and rng.random() < 0.5 else v


def area_invariance(dyn: Dynamics, rng: Random, count: int) -> str | None:
    """The area a1*a2 is sigma-invariant."""
    for _ in range(count):
        v = _movable(dyn, rng)
        if area_coordinate(_cls(dyn.model.sigma.apply_pair(v)), dyn.sigma) != area_coordinate(_cls(v), dyn.sigma):
            return f"area changed under sigma for {_cls(v)}"
    return None


def slope_scaling(dyn: Dynamics, rng: Random, count: int) -> str | None:
    """sigma scales the slope a1/a2 by lambda^2."""
    s, sig, lam2 = dyn.sigma, dyn.model.sigma, dyn.sigma.eigenvalue**2
    for _ in range(count):
        v = _movable(dyn, rng)
        if slope_coordinate(_cls(sig.apply_pair(v)), s) != lam2 * slope_coordinate(_cls(v), s):
            return f"slope scaling violated for {_cls(v)}"
    return None


def _sandwiched(val: Fraction, ref: Fraction, lam: QuadNum) -> bool:
    """ref*conj(lam) < val < ref*lam for lam = x + y*sqrt(d), y > 0: ref > 0, |val - x*ref| < y*sqrt(d)*ref."""
    return ref > 0 and (val - lam.a * ref) ** 2 < lam.b * lam.b * lam.d * ref * ref


def wall_crossing_sandwich(dyn: Dynamics, rng: Random, count: int) -> str | None:
    """tau2 moves the area of a rational class of the domain by less than a
    factor lambda either way.  Needs the involutions."""
    s, (p1, q1), (p2, q2) = dyn.sigma, dyn.pi.ray1.integer_coords(), dyn.pi.ray2.integer_coords()
    for _ in range(count):
        d1 = Fraction(rng.randint(1, 99), rng.randint(1, 9))
        d2 = Fraction(rng.randint(1, 99), rng.randint(1, 9))
        v = d1 * p1 + d2 * p2, d1 * q1 + d2 * q2
        val, ref = area_coordinate(_cls(dyn.model.tau2.apply_pair(v)), s), area_coordinate(_cls(v), s)
        if not _sandwiched(val.a, ref.a, s.eigenvalue):
            return f"wall-crossing area sandwich violated for {_cls(v)}"
    return None


def section_count_word_invariance(dyn: Dynamics, rng: Random, count: int) -> str | None:
    """h0 is unchanged along words of 1 to 6 letters sigma, sigma^-1 and,
    when the model has them, tau1, tau2.  The classes are images of nef
    classes, so they reduce into the nef cone on every model."""
    model, s, pi = dyn.model, dyn.sigma, dyn.pi
    letters = [model.sigma, model.sigma.inverse()]
    if model.has_involutions:
        letters += [model.tau1, model.tau2]
    for _ in range(count):
        v = moved = _movable(dyn, rng)
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
    """floor(x) <= x < floor(x) + 1 in Q(sqrt(d)), d = 2, 3, 5 or the model's."""
    radicands = [2, 3, 5, dyn.sigma.eigenvalue.d]
    for _ in range(count):
        a = Fraction(rng.randint(-9000, 9000), rng.randint(1, 50))
        b = Fraction(rng.randint(-900, 900), rng.randint(1, 50))
        x = QuadNum(a, b, rng.choice(radicands))
        f = x.floor()
        if not (x.compare(f) >= 0 and x.compare(f + 1) < 0):
            return f"floor bracketing violated for {x}"
    return None


def cone_membership(dyn: Dynamics, rng: Random, count: int) -> str | None:
    """Membership in the closed movable cone, decided by integer signs, agrees
    with the signs of the eigen-coordinates.  The eigenrays are irrational, so
    an integral class lies in the closed cone exactly when it is 0 or lies in
    the open cone that holds u = (1, 1)."""
    sig = dyn.model.sigma
    u = (1, 1)
    su = sig.apply_pair(u)
    for _ in range(count):
        w = rng.randint(-40, 40), rng.randint(-40, 40)
        inside = w == (0, 0) or _same_open_cone(u, su, w, sig.apply_pair(w))
        D = DivisorClass.from_ints(*w)
        if inside != (min(eigen_coords(D, dyn.sigma)) >= 0):
            return f"cone membership inconsistent for {D}"
    return None

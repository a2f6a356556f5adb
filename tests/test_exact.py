import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movcone import (
    C2Form,
    CYModel,
    DivisorClass,
    LatticeMap,
    QuadNum,
    RadicandMismatch,
    TriForm,
    exact,
    h0_movable,
    squarefree_decompose,
)
from movcone.cones import _sign, prepare
from movcone.properties import area_invariance

fractions_st = st.fractions(min_value=-60, max_value=60, max_denominator=16)
radicands = st.sampled_from([2, 3, 5, 7, 10, 33])


def quad(d):
    return st.builds(QuadNum, fractions_st, fractions_st, st.just(d))


quads = radicands.flatmap(quad)


def test_product_of_conjugate_eigenvalues_is_one():
    lam = QuadNum(23, 4, 33)
    assert lam * lam.conjugate() == QuadNum(1)


def test_additive_identity():
    x = QuadNum(Fraction(7, 3), Fraction(-2, 5), 33)
    assert QuadNum(0, 0, 33) + x == x


def test_square_of_one_plus_sqrt2():
    x = QuadNum(1, 1, 2)
    assert x * x == QuadNum(3, 2, 2)


def test_compare_examples():
    assert QuadNum(23, 4, 33).compare(QuadNum(46, 0, 33)) < 0
    x = QuadNum(Fraction(5, 7), Fraction(1, 3), 5)
    assert x.compare(x) == 0
    assert QuadNum(Fraction(-6, 2), Fraction(1, 2), 33).compare(0) < 0


def test_floor_examples():
    assert QuadNum(-30, 5, 33).floor() == -2  # 10 * (-6 + sqrt(33)) / 2
    assert QuadNum(7, 0, 33).floor() == 7
    assert QuadNum(23, 4, 33).floor() == 45


def test_radicand_mismatch_raises():
    with pytest.raises(RadicandMismatch):
        QuadNum(1, 1, 2) + QuadNum(1, 1, 3)
    with pytest.raises(RadicandMismatch):
        QuadNum(0, 1, 2) * QuadNum(0, 1, 5)
    with pytest.raises(RadicandMismatch):
        QuadNum(1, 1, 2) - QuadNum(1, 1, 3)
    with pytest.raises(RadicandMismatch):
        QuadNum(1, 1, 2).compare(QuadNum(1, 1, 3))
    # rational values interoperate with any field
    assert QuadNum(5, 0, 2) + QuadNum(1, 1, 3) == QuadNum(6, 1, 3)
    diff = QuadNum(5, 0, 2) - QuadNum(1, 1, 3)
    assert diff == QuadNum(4, -1, 3) and diff.d == 3
    assert (QuadNum(1, 1, 3) - QuadNum(5, 0, 2)).d == 3
    assert QuadNum(5, 0, 2).compare(QuadNum(1, 1, 3)) > 0
    # a difference that cancels the sqrt part stores the filler radicand
    z = QuadNum(Fraction(7, 3), Fraction(-2, 5), 33) - QuadNum(Fraction(7, 3), Fraction(-2, 5), 33)
    assert z == QuadNum(0) and z.is_rational and z.d == exact._RATIONAL_D


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QuadNum(1, 1, 2) / QuadNum(0, 0, 2)


def test_constructor_keeps_plain_fractions_and_converts_the_rest():
    """Plain Fraction parts are stored as given (they are immutable and in
    lowest terms); every other input, a Fraction subclass included, becomes
    a plain Fraction, and so does every part of an arithmetic result."""
    f, g = Fraction(7, 3), Fraction(-2, 5)
    q = QuadNum(f, g, 33)
    assert q.a is f and q.b is g and q.d == 33

    class Sub(Fraction):
        pass

    for a, b in ((3, True), (False, -4), (Sub(1, 2), Sub(-6, 4))):
        x = QuadNum(a, b, 5)
        assert type(x.a) is Fraction and type(x.b) is Fraction
        assert (x.a, x.b) == (Fraction(a), Fraction(b))
    assert QuadNum(f, Fraction(0), 33).d == QuadNum(f).d == exact._RATIONAL_D
    r = QuadNum(1, 1, 33)
    for y in (q + r, q * r, q - r, r - q, q.inverse(), q.conjugate(), -q, q * 2, 1 + q):
        assert type(y.a) is Fraction and type(y.b) is Fraction


@pytest.mark.parametrize("name", ["ex41", "oguiso"])
def test_values_never_factor_their_radicand(name, request, monkeypatch):
    """eigen_sigma factors tr^2 - 4 once per model; after that, field
    arithmetic, h0 and the area property run with squarefree_decompose
    unusable."""
    dyn = request.getfixturevalue(name)

    def refuse(n):
        raise AssertionError(f"squarefree_decompose({n}) called")

    monkeypatch.setattr(exact, "squarefree_decompose", refuse)
    lam, sig = dyn.sigma.eigenvalue, dyn.model.sigma
    assert lam * lam.conjugate() == QuadNum(1)
    assert (lam**3 - lam) / lam == lam * lam - 1
    assert lam.floor() < lam < lam.floor() + 1
    D = DivisorClass.from_ints(3, 7)
    h0 = h0_movable(dyn.model, dyn.sigma, dyn.pi, D)[0]
    for k in (-2, -1, 1, 3):
        assert h0_movable(dyn.model, dyn.sigma, dyn.pi, sig.pow(k).apply(D))[0] == h0
    assert area_invariance(dyn, random.Random(20261019), 20) is None


def test_large_tau_entries_prepare_quickly():
    """tr^2 - 4 = n^2 (n - 2)(n + 2) with n a prime past the trial-division
    bound: the radicand keeps the factor n^2 and is still not a square."""
    n = 100000007
    model = CYModel("wide", TriForm(2, 6, 8, 4), C2Form(44, 52), LatticeMap(1, n, 0, -1), LatticeMap(-1, 0, n, 1))
    t0 = time.perf_counter()
    dyn = prepare(model)
    assert time.perf_counter() - t0 < 0.5
    D = model.sigma.apply(DivisorClass.from_ints(2, 3))
    assert h0_movable(model, dyn.sigma, dyn.pi, D)[0] == model.chi(2, 3)


def test_squarefree_decompose():
    assert squarefree_decompose(528) == (4, 33)
    assert squarefree_decompose(2112) == (8, 33)
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(49) == (7, 1)
    with pytest.raises(ValueError):
        squarefree_decompose(0)


def test_str_renders_each_shape():
    assert str(QuadNum(Fraction(-5, 3))) == "-5/3"
    assert str(QuadNum(23, 4, 33)) == "23 + 4*sqrt(33)"
    assert str(QuadNum(-3, Fraction(-1, 2), 33)) == "-3 - 1/2*sqrt(33)"
    assert str(QuadNum(0, 2, 3)) == "2*sqrt(3)"
    assert str(QuadNum(0, -1, 2)) == "-1*sqrt(2)"


@settings(max_examples=150)
@given(st.tuples(fractions_st, fractions_st, fractions_st, fractions_st,
                 fractions_st, fractions_st), radicands)
def test_field_axioms(coeffs, d):
    a1, b1, a2, b2, a3, b3 = coeffs
    x, y, z = QuadNum(a1, b1, d), QuadNum(a2, b2, d), QuadNum(a3, b3, d)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x - y == x + (-y)
    assert (x - y) + y == x
    if x:
        assert x * x.inverse() == QuadNum(1)
        assert (x / x) == QuadNum(1)


@settings(max_examples=200)
@given(quads)
def test_floor_bracketing(x):
    n = x.floor()
    assert x.compare(n) >= 0
    assert x.compare(n + 1) < 0


@settings(max_examples=150)
@given(st.tuples(fractions_st, fractions_st, fractions_st, fractions_st), radicands)
def test_norm_multiplicativity(coeffs, d):
    a1, b1, a2, b2 = coeffs
    x, y = QuadNum(a1, b1, d), QuadNum(a2, b2, d)
    assert (x * y).norm() == x.norm() * y.norm()


def test_compare_against_high_precision_interval():
    """Sign decisions agree with 200-digit numerics on 10^4 random pairs."""
    rng = random.Random(20250810)
    with mpmath.workdps(200):
        for _ in range(10_000):
            d = rng.choice([2, 3, 5, 7, 33])
            a1 = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
            b1 = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
            a2 = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
            b2 = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
            if rng.random() < 0.05:
                a2, b2 = a1, b1
            x, y = QuadNum(a1, b1, d), QuadNum(a2, b2, d)
            diff = (
                mpmath.mpf(a1.numerator) / a1.denominator
                - mpmath.mpf(a2.numerator) / a2.denominator
                + (mpmath.mpf(b1.numerator) / b1.denominator
                   - mpmath.mpf(b2.numerator) / b2.denominator) * mpmath.sqrt(d)
            )
            want = 0 if abs(diff) < mpmath.mpf(10) ** -150 else (1 if diff > 0 else -1)
            assert x.compare(y) == want, (x, y)


def _pell_values(d: int) -> list[tuple[int, int]]:
    """(p, -q) for every convergent p/q of sqrt(d) below 10**60 with
    p**2 - d*q**2 = +-1, so that p - q*sqrt(d) = +-1 / (p + q*sqrt(d)):
    a and b*sqrt(d) agree to about 2*len(str(p)) significant digits."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    p0, p1, q0, q1 = 1, a0, 0, 1
    out = []
    while p1 < 10**60:
        if abs(p1 * p1 - d * q1 * q1) == 1:
            out.append((p1, -q1))
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
    return out


def test_signs_of_near_cancelling_pell_values():
    """quad_sign, cones._sign and QuadNum.compare agree with 200-digit
    numerics on +-f*(p - q*sqrt(d)) for Pell solutions p**2 - d*q**2 = +-1 up
    to 60 digits and random Fractions f, and on zero, purely rational and
    purely irrational values."""
    rng = random.Random(20261020)
    cases = [(0, 0, 2), (0, 0, 1001)]
    for d in (2, 3, 5, 7, 33, 1001):
        pell = _pell_values(d)
        assert pell and len(str(pell[-1][0])) >= 57
        for p, q in pell:
            for _ in range(3):
                f = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6))
                cases.append((f * p, f * q, d))
            cases.append((-p, -q, d))
        for _ in range(10):
            f = Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**6))
            cases += [(f, 0, d), (0, f, d)]
    with mpmath.workdps(200):
        for a, b, d in cases:
            a, b = Fraction(a), Fraction(b)
            v = mpmath.mpf(a.numerator) / a.denominator + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(d)
            assert (v == 0) == (not a and not b) and (v == 0 or abs(v) > mpmath.mpf(10) ** -150)
            want = int(mpmath.sign(v))
            x = QuadNum(a, b, d)
            assert exact.quad_sign(a, b, d) == want, (a, b, d)
            assert _sign(x) == want, x
            assert x.compare(0) == want, x
            # the same sign read off a difference of two values near 10**60
            y = QuadNum(a + 10**60, b - 3 * 10**59, d)
            assert y.compare(QuadNum(10**60, -3 * 10**59, d)) == want, x
            assert QuadNum(10**60, -3 * 10**59, d).compare(y) == -want, x
            if a.denominator == b.denominator == 1:
                assert exact.quad_sign(a.numerator, b.numerator, d) == want, (a, b, d)


def test_pow_and_inverse():
    lam = QuadNum(23, 4, 33)
    assert lam**0 == QuadNum(1)
    assert lam**3 == lam * lam * lam
    assert lam**-2 == (lam**2).inverse()


def test_hash_consistency():
    assert hash(QuadNum(5, 0, 33)) == hash(QuadNum(5, 0, 2))
    assert QuadNum(5, 0, 33) == QuadNum(5, 0, 2)
    s = {QuadNum(1, 1, 2), QuadNum(1, 1, 2), QuadNum(1, 1, 3)}
    assert len(s) == 2


def test_floor_against_high_precision():
    """Closed-form floors agree with 250-digit numerics on 5000 random values,
    half of them with small denominators, where (P + floor(Q*sqrt(d))) often
    lands on a multiple of R."""
    rng = random.Random(20261018)
    with mpmath.workdps(250):
        for i in range(5000):
            num, den = (10**30, 10**12) if i % 2 else (60, 6)
            a = Fraction(rng.randint(-num, num), rng.randint(1, den))
            b = Fraction(rng.randint(-num, num), rng.randint(1, den))
            d = rng.choice([2, 3, 5, 7, 33, 1001])
            x = QuadNum(a, b, d)
            v = (
                mpmath.mpf(a.numerator) / a.denominator
                + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(d)
            )
            assert x.floor() == int(mpmath.floor(v)), x

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movcone import DivisorClass, QuadNum, RadicandMismatch, exact, h0_movable, squarefree_decompose
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
    # rational values interoperate with any field
    assert QuadNum(5, 0, 2) + QuadNum(1, 1, 3) == QuadNum(6, 1, 3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QuadNum(1, 1, 2) / QuadNum(0, 0, 2)


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

import random
from functools import reduce

import pytest

from movcone import (
    CIData,
    MultiProjAmbient,
    ambient_tangent_chern,
    ci_chern,
    integrate,
    intersection_data,
    multiply,
)

P4 = MultiProjAmbient((4,))
P1 = MultiProjAmbient((1,))
P3P3 = MultiProjAmbient((3, 3))

QUINTIC = CIData(P4, ((5,),))
OGUISO = CIData(P3P3, ((1, 1), (1, 1), (2, 2)))
H = {(1,): 1}
H1, H2 = {(1, 0): 1}, {(0, 1): 1}


def _product(ambient, *classes):
    return reduce(lambda f, g: multiply(ambient, f, g), classes)


def _hyperplane_family(n):
    """A CY threefold in P^n x P^n with 2(n - 3) hyperplane rows: every n
    gives the same variety as n = 3."""
    rows = ((1, 0),) * (n - 3) + ((0, 1),) * (n - 3) + ((2, 1), (1, 2), (1, 1))
    return CIData(MultiProjAmbient((n, n)), rows)


def test_ambient_chern_p4():
    c = ambient_tangent_chern(P4)
    assert [c.get((k,), 0) for k in range(6)] == [1, 5, 10, 10, 5, 0]


def test_ambient_chern_p1():
    assert ambient_tangent_chern(P1) == {(0,): 1, (1,): 2}


def test_ambient_chern_p3xp3():
    c = ambient_tangent_chern(P3P3)
    assert c[(1, 1)] == 16
    assert c[(1, 0)] == 4 and c[(0, 1)] == 4
    assert c[(2, 0)] == 6


def test_quintic_chern():
    c1, c2 = ci_chern(QUINTIC)
    assert c1 == {}
    assert c2 == {(2,): 10}


def test_oguiso_calabi_yau():
    c1, _ = ci_chern(OGUISO)
    assert c1 == {}
    assert OGUISO.is_calabi_yau
    assert OGUISO.dim == 3


def test_degree2_curve_in_p1_has_c1_zero():
    c1, _ = ci_chern(CIData(P1, ((2,),)))
    assert c1 == {}


def test_integrate_quintic():
    assert integrate(QUINTIC, _product(P4, H, H, H)) == 5
    assert integrate(QUINTIC, {}) == 0


def test_integrate_oguiso_h1_cubed():
    assert integrate(OGUISO, _product(P3P3, H1, H1, H1)) == 2


def test_integrate_rejects_wrong_degree():
    with pytest.raises(ValueError, match="class of degree 2 cannot be integrated over a 3-dimensional"):
        integrate(QUINTIC, _product(P4, H, H))
    with pytest.raises(ValueError, match="class of degree None"):
        integrate(QUINTIC, {(2,): 1, (3,): 1})


def test_intersection_data_oguiso():
    tri, c2 = intersection_data(OGUISO)
    assert tri.as_tuple() == (2, 6, 6, 2)
    assert c2.as_tuple() == (44, 44)


@pytest.mark.parametrize(
    "dims, degrees, tri, c2",
    [
        ((2, 2), ((3, 3),), (0, 3, 3, 0), (36, 36)),
        ((1, 3), ((2, 4),), (0, 0, 4, 2), (24, 44)),
    ],
)
def test_intersection_data_pinned_families(dims, degrees, tri, c2):
    got_tri, got_c2 = intersection_data(CIData(MultiProjAmbient(dims), degrees))
    assert (got_tri.as_tuple(), got_c2.as_tuple()) == (tri, c2)


def test_quintic_c2_degree():
    _, c2 = ci_chern(QUINTIC)
    assert integrate(QUINTIC, multiply(P4, c2, H)) == 50


def test_intersection_data_rejects_non_threefold():
    with pytest.raises(ValueError, match="exactly two projective factors"):
        intersection_data(CIData(P4, ((5,),)))
    with pytest.raises(ValueError, match="got dimension 4"):
        intersection_data(CIData(P3P3, ((1, 1), (1, 1))))
    with pytest.raises(ValueError, match=r"not Calabi-Yau \(c1 != 0\)"):
        intersection_data(CIData(P3P3, ((1, 1), (1, 1), (2, 1))))


def test_cidata_validation():
    with pytest.raises(ValueError):
        CIData(P4, ((1,), (1,), (1,), (1,), (1,)))
    with pytest.raises(ValueError):
        CIData(P3P3, ((1, 1, 1),))
    with pytest.raises(ValueError):
        CIData(P3P3, ((0, 0),))


def test_integrate_is_linear():
    rng = random.Random(7)
    monos = [_product(P3P3, *([H1] * (3 - j) + [H2] * j)) for j in range(4)]
    for _ in range(50):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        P, Q = rng.choice(monos), rng.choice(monos)
        combo = {e: a * P.get(e, 0) + b * Q.get(e, 0) for e in P.keys() | Q.keys()}
        assert integrate(OGUISO, combo) == a * integrate(OGUISO, P) + b * integrate(OGUISO, Q)


def test_triple_products_symmetric():
    assert integrate(OGUISO, _product(P3P3, H1, H2, H1)) == integrate(OGUISO, _product(P3P3, H1, H1, H2))
    assert integrate(OGUISO, _product(P3P3, H2, H1, H2)) == integrate(OGUISO, _product(P3P3, H1, H2, H2))


def test_cy_flag_requires_degree_sums():
    assert not CIData(P3P3, ((1, 1), (1, 1), (2, 1))).is_calabi_yau
    assert CIData(P4, ((5,),)).is_calabi_yau


def test_truncation_drops_high_powers():
    assert multiply(P1, H, H) == {}
    assert multiply(P3P3, {(3, 0): 2}, {(0, 3): 5, (1, 0): 7}) == {(3, 3): 10}


@pytest.mark.parametrize("n", [3, 4, 6, 40])
def test_hyperplane_rows_leave_the_variety_unchanged(n):
    tri, c2 = intersection_data(_hyperplane_family(n))
    assert (tri.as_tuple(), c2.as_tuple()) == ((2, 7, 7, 2), (44, 44))


def test_ci_chern_stays_in_the_full_ambient():
    ci = _hyperplane_family(5)
    c1, c2 = ci_chern(ci)
    assert c1 == {}
    assert max(e[0] for e in c2) == 2
    assert [integrate(ci, multiply(ci.ambient, c2, h)) for h in (H1, H2)] == [44, 44]


def test_calabi_yau_always_has_c1_zero():
    rng = random.Random(12)
    for _ in range(60):
        k = rng.randint(1, 3)
        dims = tuple(rng.randint(1, 4) for _ in range(k))
        budgets = [n + 1 for n in dims]
        rows = rng.randint(1, min(budgets))
        degrees = []
        for r in range(rows):
            deg = []
            for i in range(k):
                left = rows - r - 1
                hi = budgets[i] - left
                pick = rng.randint(0, hi) if r < rows - 1 else budgets[i]
                deg.append(pick)
                budgets[i] -= pick
            degrees.append(tuple(deg))
        if any(not any(d) for d in degrees) or sum(dims) < rows:
            continue
        ci = CIData(MultiProjAmbient(dims), tuple(degrees))
        if not ci.is_calabi_yau:
            continue
        c1, _ = ci_chern(ci)
        assert c1 == {}, ci

import collections
import itertools
import random
import re
from fractions import Fraction

import mpmath
import pytest

from movcone import (
    C2Form,
    CYModel,
    DivisorClass,
    InvalidModel,
    LatticeMap,
    NotMovable,
    QuadNum,
    RadicandMismatch,
    TriForm,
    area_coordinate,
    eigen_coords,
    eigen_sigma,
    fundamental_domain,
    h0_movable,
    in_open_movable,
    reduce_to_domain,
    slope_coordinate,
    validate_model,
)
from movcone.chow import CIData, MultiProjAmbient
from movcone.cones import SIGMA, SIGMA_INV, TAU2, _Value, coord_signs, det2
from movcone.growth import estimate_exponent, geometric_grid, sweep
from movcone.models import ModelFile, bundled_model_path, load_model
from movcone.properties import _lam_ints, _sandwiched, wall_crossing_sandwich

D = DivisorClass.from_ints


def movable_cone(s):
    return s.ray1, s.ray2


def in_cone(cone, cls) -> bool:
    """Membership in the closed cone of two rays (boundary counts as inside)."""
    return min(coord_signs(*cone, cls)) >= 0


def cone_coords(cone, cls):
    """Coordinates of cls in the basis of the cone's two rays, exact over
    Q(sqrt(d)): the det2 values whose signs coord_signs reads, divided."""
    r1, r2 = cone
    dt = det2(r1, r2)
    return det2(cls, r2) / dt, det2(r1, cls) / dt


def model_ex41():
    return CYModel(
        "ex41", TriForm(2, 6, 8, 2), C2Form(44, 56), LatticeMap(1, 6, 0, -1), LatticeMap(-1, 0, 8, 1)
    )


def test_lattice_map_conventions():
    t1 = LatticeMap(1, 6, 0, -1)
    assert t1.apply(D(0, 1)) == D(6, -1)  # H2 -> 6 H1 - H2
    assert t1.apply(D(1, 0)) == D(1, 0)
    assert t1.det() == -1 and t1.trace() == 0
    # equal values hash equal, as their field tuples
    assert hash(LatticeMap(1, 6, 0, -1)) == hash(t1) == hash((1, 6, 0, -1))
    assert hash(TriForm(2, 6, 8, 2)) == hash(TriForm(2, 6, 8, 2)) == hash((2, 6, 8, 2))


def test_sigma_composition():
    m = model_ex41()
    assert m.sigma.as_tuple() == (-1, -6, 8, 47)
    assert m.sigma.apply(D(1, 0)) == D(-1, 8)


def _value_types(cls=_Value):
    for sub in cls.__subclasses__():
        yield sub
        yield from _value_types(sub)


def test_every_value_type_takes_its_fields_in_slot_order(ex41, ex41_ideal):
    records = sweep(ex41.model, ex41.sigma, ex41.pi, D(5, 5), geometric_grid())
    ambient = MultiProjAmbient((3, 3))
    values = [
        ex41, ex41.model, ex41.sigma, ex41.sigma.ray1, ex41.model.triform, ex41.model.c2form,
        ex41.model.sigma, records[0], estimate_exponent(records), load_model(bundled_model_path("example41")),
        ambient, CIData(ambient, ((1, 1), (1, 1), (2, 2))), ex41_ideal, ex41_ideal.ring, ex41_ideal.generators[0],
    ]
    assert {type(v) for v in values} == set(_value_types())
    for v in values:
        cls, fields = type(v), v.as_tuple()
        assert fields == tuple(getattr(v, name) for name in cls._fields), cls
        with pytest.raises(TypeError):
            cls(*fields, None)
        if cls.__init__ is _Value.__init__:  # a plain record: the base builds it
            rebuilt = cls(*fields)
            assert rebuilt == v and (cls.__hash__ is None or hash(rebuilt) == hash(v)), cls
            with pytest.raises(TypeError):
                cls(*fields[:-1])
        if cls is ModelFile:  # path takes no part in equality
            assert v.path is not None and cls(*fields[:-1], None) == v
        for name in (cls._fields[0], "other"):
            with pytest.raises(AttributeError):
                setattr(v, name, None)
            with pytest.raises(AttributeError):
                delattr(v, name)


def test_sigma_is_set_at_construction():
    tri, c2, t1, t2 = TriForm(2, 6, 8, 2), C2Form(44, 56), LatticeMap(1, 6, 0, -1), LatticeMap(-1, 0, 8, 1)
    assert CYModel("ex41", tri, c2, t1, t2).sigma == t2 @ t1
    # sigma beside the involutions is refused, whether or not it is tau2.tau1
    for sigma in (t2 @ t1, t1 @ t2):
        with pytest.raises(InvalidModel, match="^give either tau1/tau2 or sigma, not both$"):
            CYModel("ex41", tri, c2, t1, t2, sigma=sigma)
    with pytest.raises(ValueError, match="neither involutions nor sigma"):
        CYModel("none", tri, c2, None, None)


@pytest.mark.parametrize("given", ["tau1", "tau2"])
def test_one_involution_is_rejected(given):
    taus = {"tau1": LatticeMap(1, 6, 0, -1), "tau2": LatticeMap(-1, 0, 8, 1)}
    kwargs = {"tau1": None, "tau2": None, given: taus[given]}
    with pytest.raises(InvalidModel, match="^tau1 and tau2 must be given together$"):
        CYModel("one", TriForm(2, 6, 8, 2), C2Form(44, 56), **kwargs)


def test_mat_pow():
    s = model_ex41().sigma
    assert s.pow(0) == LatticeMap.identity()
    assert s.pow(2) == s @ s
    assert s.pow(-3) @ s.pow(3) == LatticeMap.identity()
    assert s.pow(5).apply(D(3, 2)) == s.apply(s.apply(s.apply(s.apply(s.apply(D(3, 2))))))


def test_lattice_map_rejects_singular():
    with pytest.raises(ValueError):
        LatticeMap(1, 2, 2, 4)
    with pytest.raises(ValueError, match="must be invertible"):
        LatticeMap(0, 0, 0, 0)


def test_validate_bundled_model():
    assert validate_model(model_ex41()) == []


def test_validate_identity_tau_flags_violations():
    with pytest.raises(InvalidModel) as exc:
        CYModel("bad", TriForm(2, 6, 8, 2), C2Form(44, 56), LatticeMap.identity(), LatticeMap(-1, 0, 8, 1))
    assert any("determinant" in v for v in exc.value.args)
    assert any("finite order" in v for v in exc.value.args)
    assert str(exc.value) == "; ".join(exc.value.args)


def test_validate_non_involution():
    with pytest.raises(InvalidModel) as exc:
        CYModel("bad", TriForm(2, 6, 8, 2), C2Form(44, 56), LatticeMap(1, 6, 0, -1), LatticeMap(-1, 0, 8, -1))
    assert any("tau2: determinant must be -1" in v for v in exc.value.args)


def test_validate_chi_integrality():
    with pytest.raises(InvalidModel) as exc:
        CYModel("bad", TriForm(2, 6, 8, 2), C2Form(45, 56), LatticeMap(1, 6, 0, -1), LatticeMap(-1, 0, 8, 1))
    assert any("chi integrality" in v for v in exc.value.args)


def test_validate_ray_fixing():
    with pytest.raises(InvalidModel) as exc:
        CYModel("bad", TriForm(2, 6, 8, 2), C2Form(44, 56), LatticeMap(-1, 0, 8, 1), LatticeMap(1, 6, 0, -1))
    assert any("does not fix" in v for v in exc.value.args)


def test_validate_cubic_positivity():
    t1, t2 = LatticeMap(1, 6, 0, -1), LatticeMap(-1, 0, 8, 1)
    with pytest.raises(InvalidModel) as exc:
        CYModel("bad", TriForm(1, -50, -50, 1), C2Form(0, 0), t1, t2)
    assert any("triple form" in v and "(1, -50, -50, 1)" in v for v in exc.value.args)
    # H1 and H2 are nef, so by Kleiman's criterion each product H1^i.H2^(3-i)
    # is >= 0; (4, -1, -2, 6) has D^3 > 0 on the open nef cone, yet no
    # threefold with this nef cone has H1^2.H2 = -1
    for form, positive in (
        ((1, -2, 1, 1), False),
        ((1, 0, 1, 1), True),
        ((1, -1, 0, 1), False),
        ((1, 0, 0, 2), True),
        ((2, -1, 0, 1), False),
        ((4, -1, -2, 6), False),
        ((3, -1, 2, 3), False),
        ((0, 1, 0, 0), True),
        ((1, 0, 0, 0), True),
        ((0, 0, 0, 0), False),
    ):
        try:
            CYModel("m", TriForm(*form), C2Form(0, 0), t1, t2)
            issues = ()
        except InvalidModel as exc:
            issues = exc.args
        assert any("triple form" in v for v in issues) != positive, form


def test_validate_negative_c2():
    with pytest.raises(InvalidModel) as exc:
        CYModel("bad", TriForm(2, 6, 8, 2), C2Form(-12, 56), LatticeMap(1, 6, 0, -1), LatticeMap(-1, 0, 8, 1))
    assert any("negative against nef" in v for v in exc.value.args)


def test_eigen_sigma_exact_values(ex41):
    s = ex41.sigma
    assert s.eigenvalue == QuadNum(23, 4, 33)
    assert s.eigenvalue.conjugate() == QuadNum(23, -4, 33)
    assert s.eigenvalue * s.eigenvalue.conjugate() == QuadNum(1)
    assert s.eigenvalue.d == 33
    assert s.ray1 == DivisorClass(QuadNum(-3, Fraction(1, 2), 33), QuadNum(1))
    # contracting ray is sign-flipped so the movable cone contains the nef cone
    assert s.ray2 == DivisorClass(QuadNum(3, Fraction(1, 2), 33), QuadNum(-1))


def test_eigenvalue_satisfies_characteristic_polynomial(ex41):
    lam = ex41.sigma.eigenvalue
    assert lam * lam - 46 * lam + 1 == QuadNum(0)


@pytest.mark.parametrize("dyn", ["ex41", "oguiso", "synthetic"])
def test_eigenrays_are_exact_eigenvectors(dyn, request):
    dyn = request.getfixturevalue(dyn)
    s = dyn.sigma
    sig = dyn.model.sigma
    for ray, ev in ((s.ray1, s.eigenvalue), (s.ray2, s.eigenvalue.conjugate())):
        img = sig.apply(ray)
        assert img.p == ray.p * ev and img.q == ray.q * ev


def test_eigen_sigma_oguiso(oguiso):
    assert oguiso.model.sigma.trace() == 34
    assert oguiso.sigma.eigenvalue == QuadNum(17, 12, 2)


def test_eigen_sigma_rejects_finite_order():
    # eigen_sigma needs no check of its own: a finite-order sigma builds no model
    with pytest.raises(InvalidModel) as exc:
        CYModel("rot", TriForm(2, 6, 8, 2), C2Form(44, 56), None, None, sigma=LatticeMap(0, -1, 1, 0))
    assert exc.value.args == ("sigma: |trace| = 0 <= 2, no eigenvalue > 1 (finite order or parabolic)",)


def _sigma_model(sigma):
    return CYModel("s", TriForm(6, 3, 3, 6), C2Form(12, 12), None, None, sigma=sigma)


@pytest.mark.parametrize(
    "sigma, problem",
    [
        (LatticeMap(-1, -2, 4, 7), None),
        (LatticeMap(-1, -6, 8, 47), None),
        (LatticeMap(2, 1, 1, 2), "determinant must be +1"),
        (LatticeMap(-3, 1, -1, 0), "trace must be positive"),
        # parabolic: sigma^n = [1, n, 0, 1] has infinite order, no eigenvalue > 1
        (LatticeMap(1, 1, 0, 1), "no eigenvalue > 1 (finite order or parabolic)"),
    ],
)
def test_sigma_rejected_at_construction(sigma, problem):
    if problem is None:
        assert validate_model(_sigma_model(sigma)) == []
        eigen_sigma(_sigma_model(sigma))
        return
    with pytest.raises(InvalidModel, match=re.escape(problem)) as exc:
        _sigma_model(sigma)
    # the nef generators are tested only against a sigma that passes
    assert all(v.startswith("sigma: ") for v in exc.value.args), exc.value.args


def test_fundamental_domain_is_nef_cone(ex41, oguiso):
    for dyn in (ex41, oguiso):
        assert fundamental_domain(dyn.model, D(1, 1)) == ((1, 0), (0, 1))


def test_fundamental_domain_intermediate_classes(ex41):
    m = ex41.model
    x = D(1, 1)
    z1 = x + m.tau1.apply(x)
    assert z1 == D(8, 0)
    z2 = z1 + m.sigma.apply(z1)
    assert z2 == D(0, 64)


def test_fundamental_domain_rejects_non_ample(ex41):
    with pytest.raises(ValueError):
        fundamental_domain(ex41.model, D(0, 1))
    with pytest.raises(ValueError):
        fundamental_domain(ex41.model, D(-1, 2))


def test_fundamental_domain_independent_of_ample_choice(ex41, oguiso):
    rng = random.Random(11)
    for dyn in (ex41, oguiso):
        ref = fundamental_domain(dyn.model, D(1, 1))
        for _ in range(100):
            x = D(rng.randint(1, 40), rng.randint(1, 40))
            pi = fundamental_domain(dyn.model, x)
            assert pi == ref


def test_fundamental_domain_sigma_only(synthetic):
    pi = synthetic.pi
    assert in_cone(pi, (1, 0)) and in_cone(pi, (0, 1))
    assert pi == ((1, 0), (-1, 4))


_NORMAL_FORM = [
    (b, c) for b in (-6, -5, -1, 1, 2, 5, 6) for c in (-8, -6, -5, -1, 1, 3, 5, 8) if b * c > 4
]


@pytest.mark.parametrize("b, c", _NORMAL_FORM)
def test_validation_decides_the_domain_with_involutions(b, c):
    # tau1 = [1, b, 0, -1] and tau2 = [-1, 0, c, 1] are the involutions of
    # determinant -1 fixing H1 and H2; sigma has trace b*c - 2 > 2.  With
    # b, c < 0 the nef cone lies outside the movable cone; when b or c is -1,
    # as in (-1, -5) and (-6, -1), only the polar half of the test rejects it
    args = ("nf", TriForm(2, 6, 8, 2), C2Form(44, 56), LatticeMap(1, b, 0, -1), LatticeMap(-1, 0, c, 1))
    if not (b > 0 and c > 0):
        with pytest.raises(InvalidModel) as exc:
            CYModel(*args)
        assert all("outside the open movable cone" in v for v in exc.value.args), exc.value.args
        return
    m = CYModel(*args)
    assert validate_model(m) == []
    for x in ((1, 1), (2, 1), (1, 3), (5, 7)):
        assert fundamental_domain(m, D(*x)) == ((1, 0), (0, 1))
    s, pi = eigen_sigma(m), fundamental_domain(m, D(1, 1))
    for k in (-3, 0, 1, 4):
        for base in ((3, 2), (1, 0), (0, 1)):
            assert reduce_to_domain(m, s, pi, m.sigma.pow(k).apply(D(*base)))[1] == D(*base)


def _search_domain(m, s):
    """The domain by search: the first of the integer ray pairs (g, sigma^+-1 g),
    g a nef generator, whose cone holds both generators, with rays in increasing
    QuadNum slope; None if there is none."""
    for g in ((1, 0), (0, 1)):
        for t in (m.sigma, m.sigma.inverse()):
            cand = g, t.apply_pair(g)
            if in_cone(cand, (1, 0)) and in_cone(cand, (0, 1)):
                if slope_coordinate(cand[0], s) > slope_coordinate(cand[1], s):
                    cand = cand[::-1]
                return cand
    return None


def _nef_inside_eigen_cone(flat) -> bool:
    """Reference for the sigma-only validation, independent of movcone: whether
    H1 and H2 have nonzero eigen-coordinates of equal signs, from mpmath's
    eigenvectors of sigma at 50 digits."""
    with mpmath.workdps(50):
        _, rays = mpmath.eig(mpmath.matrix([flat[:2], flat[2:]]))
        h1, h2 = (mpmath.lu_solve(rays, mpmath.matrix(h)) for h in ([1, 0], [0, 1]))
        return all(mpmath.sign(h1[i]) * mpmath.sign(h2[i]) > 0 for i in range(2))


def test_validation_decides_the_domain_sigma_only():
    # no sigma of determinant 1 takes H1 strictly inside the nef cone, so
    # every sigma that validates has a one-window domain holding H1 and H2
    seen = collections.Counter()
    for flat in itertools.product(range(-8, 9), repeat=4):
        if flat[0] * flat[3] - flat[1] * flat[2] != 1 or flat[0] + flat[3] <= 2:
            continue
        inside = _nef_inside_eigen_cone(flat)
        seen["domain" if inside else "outside"] += 1
        if not inside:
            with pytest.raises(InvalidModel) as exc:
                _sigma_model(LatticeMap(*flat))
            assert all("outside the open movable cone" in v for v in exc.value.args), (flat, exc.value.args)
            continue
        m = _sigma_model(LatticeMap(*flat))
        ref = _search_domain(m, eigen_sigma(m))
        for x in ((1, 1), (2, 1), (1, 3), (5, 7)):
            pi = fundamental_domain(m, D(*x))
            assert pi == ref, flat
            assert in_cone(pi, (1, 0)) and in_cone(pi, (0, 1)), flat
    assert seen == {"outside": 184, "domain": 44}


@pytest.mark.parametrize("dyn", ["ex41", "synthetic"])
def test_reduce_rejects_domain_in_reverse_slope_order(dyn, request):
    dyn = request.getfixturevalue(dyn)
    reverse = dyn.pi[::-1]
    for base in ((3, 2), (1, 0), (40, 1)):
        cls = dyn.model.sigma.pow(3).apply(D(*base))
        with pytest.raises(ValueError, match="do not tile"):
            reduce_to_domain(dyn.model, dyn.sigma, reverse, cls)


def test_cone_membership_examples(ex41):
    assert in_cone(((1, 0), (0, 1)), D(1, 0))
    mov = movable_cone(ex41.sigma)
    assert in_cone(mov, D(1, 1))
    assert not in_cone(mov, D(-1, 0))


def test_eigen_coordinate_square_identities(ex41):
    rng = random.Random(23)
    s = ex41.sigma
    for _ in range(500):
        cls = D(rng.randint(1, 50), rng.randint(1, 50))
        a1, a2 = eigen_coords(cls, s)
        l1 = area_coordinate(cls, s)
        l2 = slope_coordinate(cls, s)
        assert a1 * a1 == l1 * l2
        assert a2 * a2 == l1 / l2


def test_slope_undefined_on_expanding_ray(ex41):
    s = ex41.sigma
    with pytest.raises(ZeroDivisionError):
        slope_coordinate(s.ray1, s)


def test_wall_crossing_area_sandwich(ex41, oguiso):
    rng = random.Random(29)
    for dyn in (ex41, oguiso):
        assert wall_crossing_sandwich(dyn, rng, 1000) is None


def test_reduce_identity_inside_domain(ex41):
    word, red = reduce_to_domain(ex41.model, ex41.sigma, ex41.pi, D(1, 0))
    assert word == [] and red == D(1, 0)


def test_reduce_sigma_power(ex41):
    cls = ex41.model.sigma.pow(5).apply(D(3, 2))
    word, red = reduce_to_domain(ex41.model, ex41.sigma, ex41.pi, cls)
    assert word == [SIGMA_INV] * 5
    assert red == D(3, 2)


def test_reduce_negative_power(ex41):
    cls = ex41.model.sigma.pow(-4).apply(D(2, 3))
    word, red = reduce_to_domain(ex41.model, ex41.sigma, ex41.pi, cls)
    assert word == [SIGMA] * 4
    assert red == D(2, 3)


def test_reduce_involution(ex41):
    cls = ex41.model.tau2.apply(D(2, 1))
    word, red = reduce_to_domain(ex41.model, ex41.sigma, ex41.pi, cls)
    assert word == [TAU2]
    assert red == D(2, 1)


@pytest.mark.parametrize(
    "dyn, base, k, word, reduced",
    [
        ("ex41", (3, 0), 1, [TAU2], (3, 0)),
        ("ex41", (3, 0), -1, [SIGMA], (3, 0)),
        ("ex41", (3, 0), 2, [SIGMA_INV] * 2, (3, 0)),
        ("oguiso", (3, 0), 1, [TAU2], (3, 0)),
        ("oguiso", (3, 0), -1, [SIGMA], (3, 0)),
        ("oguiso", (3, 0), 2, [SIGMA_INV] * 2, (3, 0)),
        ("ex41", (-3, 24), 0, [TAU2], (3, 0)),
        ("ex41", (-3, 24), -1, [], (3, 0)),
        ("synthetic", (3, 0), 1, [], (-3, 12)),
        ("ex41", (3, 2), 300, [SIGMA_INV] * 300, (3, 2)),
        ("ex41", (3, 2), -300, [SIGMA] * 300, (3, 2)),
    ],
)
def test_reduce_tie_breaks_on_window_rays(dyn, base, k, word, reduced, request):
    # sigma^k of classes on a boundary ray of the domain or of its tau2 mirror
    # (pi wins over the mirror, the mirror over a sigma step), and long words
    dyn = request.getfixturevalue(dyn)
    cls = dyn.model.sigma.pow(k).apply(D(*base))
    assert reduce_to_domain(dyn.model, dyn.sigma, dyn.pi, cls) == (word, D(*reduced))


def test_reduce_rejects_domain_outside_movable(ex41):
    # the negated nef cone passes the sigma-window test on slopes alone
    with pytest.raises(ValueError, match="do not tile"):
        reduce_to_domain(ex41.model, ex41.sigma, ((-1, 0), (0, -1)), D(1, 1))


def test_reduce_rejects_outside_movable(ex41):
    # NotMovable is a ValueError with the message the CLI has always printed
    assert issubclass(NotMovable, ValueError)
    for reduce in (reduce_to_domain, h0_movable):
        for cls, text in ((D(-1, 0), "[-1, 0]"), (D(0, 0), "[0, 0]")):
            message = f"^{re.escape(text)} is not in the open movable cone; reduction undefined$"
            with pytest.raises(NotMovable, match=message):
                reduce(ex41.model, ex41.sigma, ex41.pi, cls)


@pytest.mark.parametrize("reduce", [reduce_to_domain, h0_movable])
def test_reduce_rejects_non_integral_classes(ex41, reduce):
    for cls in (DivisorClass(QuadNum(Fraction(1, 2)), QuadNum(1)), ex41.sigma.ray1):
        with pytest.raises(ValueError, match="^only integral classes are reduced$"):
            reduce(ex41.model, ex41.sigma, ex41.pi, cls)


def test_reduce_random_words_land_in_domain(ex41, synthetic):
    rng = random.Random(31)
    for dyn in (ex41, synthetic):
        m, s, pi = dyn.model, dyn.sigma, dyn.pi
        maps = [m.sigma, m.sigma.inverse()]
        if m.has_involutions:
            maps += [m.tau1, m.tau2]
        for _ in range(400):
            cls = D(rng.randint(1, 20), rng.randint(1, 20))
            for _ in range(rng.randint(0, 8)):
                cls = rng.choice(maps).apply(cls)
            word, red = reduce_to_domain(m, s, pi, cls)
            assert in_cone(pi, red.integer_coords())
            assert red.is_integral
            assert len(word) <= 70


def test_reduce_word_replays_to_reduced_class(ex41):
    rng = random.Random(37)
    m, s, pi = ex41.model, ex41.sigma, ex41.pi
    lookup = {SIGMA: m.sigma, SIGMA_INV: m.sigma.inverse(), TAU2: m.tau2}
    for _ in range(200):
        cls = m.sigma.pow(rng.randint(-5, 5)).apply(D(rng.randint(1, 30), rng.randint(1, 30)))
        word, red = reduce_to_domain(m, s, pi, cls)
        replay = cls
        for token in word:
            replay = lookup[token].apply(replay)
        assert replay == red


def test_reduce_preserves_lattice(ex41):
    rng = random.Random(41)
    m = ex41.model
    for _ in range(300):
        cls = D(rng.randint(1, 15), rng.randint(1, 15))
        moved = m.sigma.pow(rng.randint(-6, 6)).apply(cls)
        assert moved.is_integral
        _, red = reduce_to_domain(m, ex41.sigma, ex41.pi, moved)
        assert red.is_integral


def test_synthetic_model_validates(synthetic):
    assert validate_model(synthetic.model) == []
    assert not synthetic.model.has_involutions


def test_divisor_class_api():
    c = D(3, -2)
    assert c.is_integral and c.integer_coords() == (3, -2)
    irr = DivisorClass(QuadNum(0, 1, 2), QuadNum(1))
    assert not irr.is_integral
    with pytest.raises(ValueError):
        irr.integer_coords()
    assert (c + D(1, 1)) == D(4, -1)
    assert -c == D(-3, 2)
    with pytest.raises(AttributeError):
        c.p = QuadNum(1)
    with pytest.raises(AttributeError):
        del c.q
    assert c == D(3, -2) and c != (3, -2)


def test_cone_coords_reconstruct(ex41):
    rng = random.Random(43)
    mov = r1, r2 = movable_cone(ex41.sigma)
    for _ in range(200):
        cls = D(rng.randint(-20, 20), rng.randint(-20, 20))
        a1, a2 = cone_coords(mov, cls)
        rebuilt = DivisorClass(r1.p * a1, r1.q * a1) + DivisorClass(r2.p * a2, r2.q * a2)
        assert rebuilt == cls


def _differential_classes(s, rng):
    """Integral classes, Fraction-scaled ones, a Fraction p with an integral
    q, and the irrational m*r1 + A and Fraction*r2 + r1."""
    r1, r2 = s.ray1, s.ray2
    for _ in range(100):
        yield D(rng.randint(-80, 80), rng.randint(-80, 80))
        c, f = D(rng.randint(-80, 80), rng.randint(-80, 80)), Fraction(rng.randint(-99, 99), rng.randint(1, 9))
        yield DivisorClass(c.p * f, c.q * f)
        yield DivisorClass(QuadNum(Fraction(rng.randint(-99, 99), rng.randint(1, 9))), QuadNum(rng.randint(-9, 9)))
        m = rng.randint(1, 1 << 40)
        yield DivisorClass(r1.p * m, r1.q * m) + D(rng.randint(-9, 9), rng.randint(-9, 9))
        f = Fraction(rng.randint(1, 99), rng.randint(1, 9))
        yield DivisorClass(r2.p * f, r2.q * f) + r1


@pytest.mark.parametrize("dyn", ["ex41", "oguiso", "synthetic"])
def test_eigen_coords_match_cone_coords(dyn, request):
    s = request.getfixturevalue(dyn).sigma
    mov = movable_cone(s)
    assert eigen_coords(s.ray1, s) == (QuadNum(1), QuadNum(0))
    assert eigen_coords(s.ray2, s) == (QuadNum(0), QuadNum(1))
    for cls in _differential_classes(s, random.Random(53)):
        assert eigen_coords(cls, s) == cone_coords(mov, cls), cls


def _integer_path_models():
    """The bundled models, the valid involution normal forms, and the
    sigma-only models of entries in [-8, 8]: every bundled and normal-form
    model flips r2 in eigen_sigma, and each sigma-only one with c < 0 flips r1."""
    yield from (load_model(bundled_model_path(n)).to_cymodel() for n in ("example41", "oguiso", "synthetic-bminus-empty"))
    for b, c in _NORMAL_FORM:
        if b > 0 and c > 0:
            yield CYModel("nf", TriForm(2, 6, 8, 2), C2Form(44, 56), LatticeMap(1, b, 0, -1), LatticeMap(-1, 0, c, 1))
    for flat in itertools.product(range(-8, 9), repeat=4):
        if flat[0] * flat[3] - flat[1] * flat[2] == 1 and flat[0] + flat[3] > 2:
            try:
                yield _sigma_model(LatticeMap(*flat))
            except InvalidModel:
                pass


def _quadnum_dual(s):
    """The dual basis of (s.ray1, s.ray2), in QuadNum arithmetic."""
    r1, r2 = s.ray1, s.ray2
    inv = det2(r1, r2).inverse()
    return DivisorClass(r2.q * inv, -r2.p * inv), DivisorClass(-r1.q * inv, r1.p * inv)


def _irrational_classes(s, rng, count):
    """m*r1 + A for an ample integral A, a Fraction multiple of r2 plus r1,
    and p, q with independent sqrt(d) parts."""
    r1, r2, d = s.ray1, s.ray2, s.eigenvalue.d
    for _ in range(count):
        m = rng.randint(1, 1 << 40)
        yield DivisorClass(r1.p * m, r1.q * m) + D(rng.randint(1, 9), rng.randint(1, 9))
        f = Fraction(rng.randint(1, 99), rng.randint(1, 9))
        yield DivisorClass(r2.p * f, r2.q * f) + r1
        parts = [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(4)]
        yield DivisorClass(QuadNum(*parts[:2], d), QuadNum(*parts[2:], d))


def test_integer_eigen_path_matches_the_quadnum_reference():
    # the reference is the dot product with D of the dual basis of
    # (ray1, ray2) in QuadNum arithmetic; every bundled model takes the
    # whole grid [-30, 30]^2, the others 40 integer classes each, and all
    # take 40 Fraction classes with denominators 1 to 9 and 30 irrational ones
    rng = random.Random(61)
    flips, checked, irrational_areas = collections.Counter(), 0, 0
    for i, m in enumerate(_integer_path_models()):
        s = eigen_sigma(m)
        dual = _quadnum_dual(s)
        flips[s.ray1.q.a < 0, s.ray2.q.a < 0] += 1
        if i < 3:
            pairs = [(p, q) for p in range(-30, 31) for q in range(-30, 31)]
        else:
            pairs = [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(40)]
        pairs += [tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in "pq") for _ in range(40)]
        classes = [DivisorClass(*map(QuadNum, pq)) for pq in pairs]
        for cls in classes + list(_irrational_classes(s, rng, 10)):
            a1, a2 = (w.p * cls.p + w.q * cls.q for w in dual)
            assert eigen_coords(cls, s) == (a1, a2), (m.sigma, cls)
            area = area_coordinate(cls, s)
            ref = a1 * a2
            assert (area.a, area.b) == (ref.a, ref.b), (m.sigma, cls)
            if cls.p.is_rational and cls.q.is_rational:
                assert area.is_rational, (m.sigma, cls)
            irrational_areas += not area.is_rational
            if a2:
                assert slope_coordinate(cls, s) * a2 == a1, (m.sigma, cls)
            else:
                with pytest.raises(ZeroDivisionError):
                    slope_coordinate(cls, s)
            checked += 1
    assert flips == {(False, True): 16 + 22, (True, False): 22}, flips
    assert checked == 3 * (3721 + 40) + 57 * 80 + 60 * 30
    # a Fraction multiple f of r2 plus r1 has the rational area f; the other
    # two irrational kinds have a nonzero sqrt(d) part
    assert irrational_areas == 60 * 20, irrational_areas


def test_eigen_coordinates_reject_another_radicand(ex41):
    s = ex41.sigma
    assert s.eigenvalue.d == 33
    for cls in (DivisorClass(QuadNum(0, 1, 5), QuadNum(1)), DivisorClass(QuadNum(1), QuadNum(2, 3, 5))):
        for coordinate in (eigen_coords, area_coordinate, slope_coordinate):
            with pytest.raises(RadicandMismatch):
                coordinate(cls, s)


def _quadnum_sandwich(val, ref, lam) -> bool:
    return QuadNum(val).compare(ref * lam.conjugate()) > 0 and QuadNum(val).compare(ref * lam) < 0


def test_sandwich_decision_matches_quadnum_compare(ex41, oguiso, synthetic):
    # 1,000 seeded pairs on four eigenvalues, one with Fraction parts; val
    # is drawn at random, at x*ref, and one unit either side of the integers
    # next to ref*lam and ref*conj(lam), where the decision flips
    rng = random.Random(67)
    lams = [dyn.sigma.eigenvalue for dyn in (ex41, oguiso, synthetic)] + [QuadNum(Fraction(3, 2), Fraction(1, 2), 5)]
    outcomes = collections.Counter()
    for _ in range(1000):
        lam = rng.choice(lams)
        ref = Fraction(rng.randint(-50, 500), rng.randint(1, 12))
        hi, lo = (ref * lam).floor(), -(-ref * lam.conjugate()).floor()
        val = rng.choice(
            [Fraction(rng.randint(-9000, 9000), rng.randint(1, 12)), lam.a * ref]
            + [hi + e for e in (-1, 0, 1, 2)] + [lo + e for e in (-2, -1, 0, 1)]
        )
        decided = _sandwiched(Fraction(val), ref, *_lam_ints(lam))
        assert decided == _quadnum_sandwich(val, ref, lam), (val, ref, lam)
        outcomes[decided, ref > 0] += 1
    assert min(outcomes.values()) > 50 and outcomes[True, False] == 0, outcomes


@pytest.mark.parametrize("dyn", ["ex41", "oguiso", "synthetic"])
def test_lattice_map_apply_matches_quadnum_formula(dyn, request):
    dyn = request.getfixturevalue(dyn)
    maps = [dyn.model.sigma, dyn.model.sigma.inverse(), dyn.model.sigma.pow(3)]
    if dyn.model.has_involutions:
        maps += [dyn.model.tau1, dyn.model.tau2]
    for cls in _differential_classes(dyn.sigma, random.Random(59)):
        for t in maps:
            img = t.apply(cls)
            assert img == DivisorClass(cls.p * t.a + cls.q * t.b, cls.p * t.c + cls.q * t.d), cls
            assert isinstance(img.p, QuadNum) and isinstance(img.q, QuadNum)


def test_in_open_movable(ex41):
    s = ex41.sigma
    assert in_open_movable(D(1, 1), s)
    assert in_open_movable(D(-1, 8), s)  # just inside the expanding side
    assert not in_open_movable(D(-1, 0), s)
    assert not in_open_movable(D(0, 0), s)

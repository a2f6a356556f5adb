import random
import re

import pytest

from movcone import (
    C2Form,
    CYModel,
    DivisorClass,
    InvalidModel,
    LatticeMap,
    TriForm,
    area_coordinate,
    chi_nef,
    h0_movable,
)
from movcone.cones import SIGMA_INV, TAU2
from movcone.properties import chi_integrality, section_count_word_invariance
from movcone.riemann_roch import ChamberCoveringError

D = DivisorClass.from_ints


def test_chi_values(ex41):
    m = ex41.model
    assert chi_nef(m, D(1, 0)) == 4
    assert chi_nef(m, D(0, 1)) == 5
    assert chi_nef(m, D(1, 1)) == 16
    assert chi_nef(m, D(0, 0)) == 0


def test_chi_rejects_non_nef(ex41):
    with pytest.raises(ValueError):
        chi_nef(ex41.model, D(-1, 8))


@pytest.mark.parametrize("name", ["ex41", "oguiso", "synthetic"])
def test_chi_nef_refuses_exactly_the_classes_with_a_negative_coordinate(name, request):
    # the nef cone is spanned by H1 and H2, so on an integer class the signs
    # chi_nef decides by must agree with min(p, q) < 0
    model = request.getfixturevalue(name).model
    refused = 0
    for p in range(-30, 31):
        for q in range(-30, 31):
            try:
                chi = chi_nef(model, D(p, q))
            except ChamberCoveringError:
                assert min(p, q) < 0, (p, q)
                refused += 1
            else:
                assert min(p, q) >= 0 and chi == model.chi(p, q), (p, q)
    assert refused == 61 * 61 - 31 * 31


def test_chi_rejects_non_integral(ex41):
    from movcone import QuadNum

    with pytest.raises(ValueError):
        chi_nef(ex41.model, DivisorClass(QuadNum(0, 1, 33), QuadNum(1)))


def test_chi_flags_broken_integrality():
    # chi_nef needs no check of its own: such data build no model
    with pytest.raises(InvalidModel) as exc:
        CYModel("bad", TriForm(2, 6, 8, 2), C2Form(45, 56), LatticeMap(1, 6, 0, -1), LatticeMap(-1, 0, 8, 1))
    assert any("chi integrality fails at 1*nef1 + 0*nef2" in v for v in exc.value.args)


def test_chi_integral_everywhere_on_every_model():
    # chi is a cubic with integral third differences, so integrality on the
    # six classes with a + b <= 2, checked at construction, gives it on Z^2
    rng = random.Random(2111)
    built = 0
    for _ in range(2000):
        tri = TriForm(*(rng.randint(0, 8) for _ in range(4)))
        c2 = C2Form(rng.randint(0, 24), rng.randint(0, 24))
        try:
            m = CYModel("m", tri, c2, LatticeMap(1, 6, 0, -1), LatticeMap(-1, 0, 8, 1))
        except InvalidModel:
            continue
        built += 1
        for p in range(-30, 31):
            for q in range(-30, 31):
                assert m.chi(p, q).denominator == 1, (tri, c2, p, q)
    assert built == 9  # about 0.5% of such data pass the a + b <= 2 check


def test_h0_examples(ex41):
    m, s, pi = ex41.model, ex41.sigma, ex41.pi
    assert h0_movable(m, s, pi, D(1, 0)) == (4, [])
    h0, word = h0_movable(m, s, pi, m.sigma.apply(D(1, 1)))
    assert h0 == 16 and word == [SIGMA_INV]
    h0, word = h0_movable(m, s, pi, m.tau2.apply(D(1, 0)))
    assert h0 == 4 and word == [TAU2]


def test_h0_invariance_under_random_words(ex41, oguiso, synthetic):
    rng = random.Random(4)
    for dyn in (ex41, oguiso, synthetic):
        assert section_count_word_invariance(dyn, rng, 500) is None


@pytest.mark.parametrize("p, q", [(1, 1), (3, 1), (1, 3), (3, 2)])
def test_h0_on_nef_classes_without_involutions(synthetic, p, q):
    m = synthetic.model
    assert h0_movable(m, synthetic.sigma, synthetic.pi, D(p, q)) == (m.chi(p, q), [])


def test_h0_rejects_chamber_covered_models(synthetic):
    # an r1 sweep row whose reduction leaves the nef cone
    with pytest.raises(ChamberCoveringError, match=re.escape("[-7, 151]")):
        h0_movable(synthetic.model, synthetic.sigma, synthetic.pi, D(-295, 1029))


def test_h0_rejects_non_big(ex41):
    with pytest.raises(ValueError):
        h0_movable(ex41.model, ex41.sigma, ex41.pi, D(-2, 1))


def test_nef_lower_band(ex41, oguiso):
    """chi/D^3 stays above 1/7 on big-and-nef integral classes."""
    rng = random.Random(9)
    for dyn in (ex41, oguiso):
        m = dyn.model
        for _ in range(2000):
            p, q = rng.randint(0, 60), rng.randint(0, 60)
            if p + q == 0:
                continue
            cube = m.triform.cube(p, q)
            assert cube > 0
            assert 7 * chi_nef(m, D(p, q)) > cube


def test_movable_band_is_bounded(ex41):
    rng = random.Random(13)
    m, s, pi = ex41.model, ex41.sigma, ex41.pi
    ratios = []
    for _ in range(400):
        cls = m.sigma.pow(rng.randint(-3, 3)).apply(D(rng.randint(1, 40), rng.randint(1, 40)))
        h0, _ = h0_movable(m, s, pi, cls)
        ratios.append(h0 / float(area_coordinate(cls, s)) ** 1.5)
    assert min(ratios) > 0
    assert max(ratios) / min(ratios) <= 1000


def test_chi_integrality_on_nef_lattice(ex41, oguiso, synthetic):
    for dyn in (ex41, oguiso, synthetic):
        assert chi_integrality(dyn, random.Random(0), 8) is None

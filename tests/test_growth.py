import io
import random
from fractions import Fraction

import mpmath
import pytest

from movcone import (
    DivisorClass,
    QuadNum,
    chi_nef,
    cone_coords,
    estimate_exponent,
    floor_class,
    geometric_grid,
    movable_cone,
    rounddown_check,
    sweep,
    write_csv,
)
from movcone.growth import CSV_HEADER, SweepRecord, render_l1

D = DivisorClass.from_ints
A55 = D(5, 5)


def test_floor_class_boundary_ray(ex41):
    out = floor_class(10, ex41.sigma.ray1, A55)
    assert out == D(3, 15)


def test_floor_class_rational_ray():
    ray = DivisorClass(QuadNum(2), QuadNum(1))
    assert floor_class(1, ray, D(0, 0) + D(2, 2)) == D(4, 3)
    with pytest.raises(ValueError):
        floor_class(0, ray, D(2, 2))


def test_floor_class_step_is_bounded(ex41):
    r1 = ex41.sigma.ray1
    prev = floor_class(1, r1, A55)
    for m in range(2, 60):
        cur = floor_class(m, r1, A55)
        dp = cur.integer_coords()[0] - prev.integer_coords()[0]
        dq = cur.integer_coords()[1] - prev.integer_coords()[1]
        assert -1 <= dp <= 1 and dq == 1
        prev = cur


def test_geometric_grid_default():
    ms = geometric_grid()
    assert ms[0] == 256 and ms[-1] == 1 << 20 and len(ms) == 13


def test_sweep_records_positive(ex41):
    recs = sweep(ex41.model, ex41.sigma, ex41.pi, A55, geometric_grid())
    assert len(recs) == 13
    assert all(not r.skipped and r.h0 > 0 for r in recs)
    assert all(r.floored.is_integral for r in recs)


def test_sweep_deterministic(ex41):
    ms = geometric_grid(256, 4096)
    a = sweep(ex41.model, ex41.sigma, ex41.pi, A55, ms)
    b = sweep(ex41.model, ex41.sigma, ex41.pi, A55, ms)
    assert a == b


@pytest.mark.parametrize("dyn", ["ex41", "oguiso"])
@pytest.mark.parametrize("ray", ["r1", "r2", D(1, 0)], ids=["r1", "r2", "dir1,0"])
def test_sweep_l1_is_area_of_real_class(dyn, ray, request):
    dyn = request.getfixturevalue(dyn)
    s = dyn.sigma
    direction = {"r1": s.ray1, "r2": s.ray2}.get(ray, ray)
    mov = movable_cone(s)
    recs = sweep(dyn.model, s, dyn.pi, A55, geometric_grid(), ray=ray)
    for r in recs:
        a1, a2 = cone_coords(mov, direction.scale(r.m) + A55)
        assert r.l1 == a1 * a2, r.m


def test_sweep_consistent_with_chi_chain(ex41):
    from movcone import reduce_to_domain

    recs = sweep(ex41.model, ex41.sigma, ex41.pi, A55, geometric_grid(256, 65536))
    for r in recs:
        _, red = reduce_to_domain(ex41.model, ex41.sigma, ex41.pi, r.floored)
        assert chi_nef(ex41.model, red) == r.h0


def test_sweep_validates_inputs(ex41):
    with pytest.raises(ValueError):
        sweep(ex41.model, ex41.sigma, ex41.pi, D(0, 1), [256, 512])
    with pytest.raises(ValueError):
        sweep(ex41.model, ex41.sigma, ex41.pi, D(1, 1), [256, 512])  # coords < 2
    with pytest.raises(ValueError):
        sweep(ex41.model, ex41.sigma, ex41.pi, A55, [256, 256])


def test_sweep_skip_flags_non_movable_records(ex41):
    # a direction outside the movable cone floors to non-big classes; such
    # rows are recorded with the skip flag rather than dropped
    recs = sweep(ex41.model, ex41.sigma, ex41.pi, A55, [16, 32, 64], ray=D(-1, 0))
    assert len(recs) == 3
    assert all(r.skipped and r.h0 == 0 and r.word_length == 0 for r in recs)
    buf = io.StringIO()
    write_csv(recs, buf)
    assert buf.getvalue().count(",1\n") == 3
    with pytest.raises(ValueError):
        estimate_exponent(recs)


def test_mirror_ray_slope_close(ex41):
    r1 = estimate_exponent(sweep(ex41.model, ex41.sigma, ex41.pi, A55, geometric_grid(), ray="r1"))
    r2 = estimate_exponent(sweep(ex41.model, ex41.sigma, ex41.pi, A55, geometric_grid(), ray="r2"))
    assert abs(r1.slope - r2.slope) < 0.05


def test_control_slope_matches_direct_chi(ex41):
    recs = sweep(
        ex41.model, ex41.sigma, ex41.pi, A55, geometric_grid(), ray=D(1, 0)
    )
    for r in recs:
        assert r.h0 == chi_nef(ex41.model, D(r.m + 5, 5))
    rep = estimate_exponent(recs)
    assert 2.95 <= rep.slope <= 3.05


def test_estimate_exponent_errors():
    def rec(m, h0):
        return SweepRecord(m, D(1, 1), h0, QuadNum(1), 0)

    with pytest.raises(ValueError):
        estimate_exponent([rec(2**k, 10) for k in range(8, 13)])  # too few
    with pytest.raises(ValueError):
        estimate_exponent([rec(m, m) for m in range(100, 109)])  # tiny span
    with pytest.raises(ValueError):
        estimate_exponent([rec(2**k, 7) for k in range(8, 21)])  # constant counts


def test_slope_stability_leave_one_out(ex41, oguiso):
    recs = sweep(oguiso.model, oguiso.sigma, oguiso.pi, A55, geometric_grid())
    base = estimate_exponent(recs).slope
    for i in range(len(recs)):
        rest = recs[:i] + recs[i + 1 :]
        assert abs(estimate_exponent(rest).slope - base) < 0.01

    # the asymmetric model's chamber profile makes the endpoint record worth
    # 0.0105 of slope on this grid; 0.01 does not hold there (see notes)
    recs = sweep(ex41.model, ex41.sigma, ex41.pi, A55, geometric_grid())
    base = estimate_exponent(recs).slope
    for i in range(len(recs)):
        rest = recs[:i] + recs[i + 1 :]
        assert abs(estimate_exponent(rest).slope - base) < 0.012


def test_band_fields(ex41):
    recs = sweep(ex41.model, ex41.sigma, ex41.pi, A55, geometric_grid())
    rep = estimate_exponent(recs)
    vals = [r.h0 / r.m**1.5 for r in recs]
    assert rep.band_min == pytest.approx(min(vals))
    assert rep.band_max == pytest.approx(max(vals))
    assert rep.residual >= 0


def test_rounddown_integral_is_exact(ex41):
    r = rounddown_check(ex41.sigma, [(D(7, 9), A55)])
    assert r.ratios == (1.0,)


def test_rounddown_boundary_multiples(ex41):
    samples = [(ex41.sigma.ray1.scale(m), A55) for m in (10, 100, 1000)]
    rep = rounddown_check(ex41.sigma, samples)
    assert rep.ratio_min > 0
    assert rep.ratio_max / rep.ratio_min <= 1000


def test_rounddown_negative_fraction_coordinate(ex41):
    cls = DivisorClass(QuadNum(Fraction(-1, 2)), QuadNum(3))
    rep = rounddown_check(ex41.sigma, [(cls, A55)])
    assert rep.ratio_min > 0


def test_rounddown_random_band(ex41):
    rng = random.Random(19)
    samples = []
    for _ in range(300):
        m = rng.randint(1, 5000)
        samples.append((ex41.sigma.ray1.scale(m), A55))
        samples.append(
            (DivisorClass(QuadNum(Fraction(rng.randint(-900, 900), 7)),
                          QuadNum(Fraction(rng.randint(100, 9000), 11))), A55)
        )
    rep = rounddown_check(ex41.sigma, samples)
    assert rep.ratio_min > 0 and rep.ratio_max / rep.ratio_min <= 1000


def test_csv_output(ex41):
    recs = sweep(ex41.model, ex41.sigma, ex41.pi, A55, geometric_grid(256, 2048))
    buf = io.StringIO()
    write_csv(recs, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(recs) + 1
    first = lines[1].split(",")
    assert first[0] == "256" and first[-1] == "0"
    # 30 significant digits in the area column
    mantissa = first[4].replace("-", "").replace(".", "").split("e")[0].lstrip("0")
    assert len(mantissa) == 30


def test_render_l1_digits():
    val = QuadNum(1, 1, 2)
    text = render_l1(val)
    assert text.startswith("2.4142135623730950488016887242")


def _nstr(x: QuadNum, digits: int = 30) -> str:
    with mpmath.workdps(digits + 10):
        v = mpmath.mpf(x.a.numerator) / x.a.denominator
        if x.b:
            v += (mpmath.mpf(x.b.numerator) / x.b.denominator) * mpmath.sqrt(x.d)
        return mpmath.nstr(v, digits)


def test_render_l1_matches_nstr():
    """The exact rendering agrees with mpmath's nstr at 40-digit working
    precision across fixed and exponent layouts, signs and carries."""
    rng = random.Random(20261018)
    values = [QuadNum(0), QuadNum(1), QuadNum(-1), QuadNum(10**29), QuadNum(10**30)]
    values += [QuadNum(Fraction(1, 10**k)) for k in (4, 9, 10, 11)]
    values += [QuadNum(10**30 - 1), QuadNum(Fraction(10**31 - 5, 10)), QuadNum(-(10**40) + 1)]
    for _ in range(3000):
        scale = Fraction(10) ** rng.randint(-40, 130)
        a = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6)) * scale
        b = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6)) * scale
        values.append(QuadNum(a, b if rng.random() < 0.7 else 0, rng.choice([2, 3, 5, 33])))
    for x in values:
        assert render_l1(x) == _nstr(x), x

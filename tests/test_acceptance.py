"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 2 checks the Hilbert fit against the Schubert-calculus intersection
numbers of the bundled Pfaffian ideal, not against the model file's stored
reference tuple.  Criterion 4 fits the boundary-ray exponent at a fixed phase
of the sigma-wobble: h0 is sigma-invariant and sigma scales the slope
coordinate by lambda^2, so the grid steps by lambda^2.
"""

import random
import time
from fractions import Fraction
from typing import NamedTuple

from movcone import (
    DivisorClass,
    LatticeMap,
    QuadNum,
    chi_nef,
    estimate_exponent,
    hilbert_dim,
    intersection_data,
    sweep,
)
from movcone.chow import CIData, MultiProjAmbient, ci_chern, integrate, multiply
from movcone.cones import area_coordinate
from movcone.growth import _check_ample, floor_class, geometric_grid
from movcone.properties import (
    area_invariance,
    chi_integrality,
    cone_membership,
    floor_bracketing,
    section_count_word_invariance,
    slope_scaling,
    wall_crossing_sandwich,
)

D = DivisorClass.from_ints
A55 = D(5, 5)


class RounddownReport(NamedTuple):
    ratios: tuple[float, ...]
    ratio_min: float
    ratio_max: float


def rounddown_check(s, samples) -> RounddownReport:
    """Exact ratio of invariant areas before and after coefficient-wise
    round-down; raises if the band is non-positive or wider than 10^3."""
    ratios = []
    for D, ample in samples:
        _check_ample(ample)
        ratio = area_coordinate(floor_class(1, D, ample), s) / area_coordinate(D + ample, s)
        if ratio.compare(0) <= 0:
            raise ValueError(f"round-down area ratio not positive for {D}")
        ratios.append(ratio)
    if not ratios:
        raise ValueError("no samples")
    rmin, rmax = min(ratios), max(ratios)
    if rmax.compare(rmin * 1000) > 0:
        raise ValueError("round-down ratio band exceeds 10^3")
    return RounddownReport(tuple(float(r) for r in ratios), float(rmin), float(rmax))


def _report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_exact_eigen_analysis(ex41):
    model, s = ex41.model, ex41.sigma
    best = min(
        _timed_eigen(model) for _ in range(5)
    )
    lam = s.eigenvalue
    ok = (
        model.sigma == LatticeMap(-1, -6, 8, 47)
        and lam == QuadNum(23, 4, 33)
        and lam * lam - 46 * lam + 1 == QuadNum(0)
        and s.ray1 == DivisorClass(QuadNum(-3, Fraction(1, 2), 33), QuadNum(1))
        and best < 1e-3
    )
    _report(
        "criterion-1 exact sigma/eigenvalue/eigenray reproduction",
        ok,
        f"sigma={model.sigma.as_tuple()} lambda={lam} ray1={s.ray1} eigen time={best * 1e6:.0f}us",
    )


def _timed_eigen(model):
    from movcone import eigen_sigma

    t0 = time.perf_counter()
    eigen_sigma(model)
    return time.perf_counter() - t0


def _pfaffian_model_expected():
    """Intersection data of the bundled Pfaffian threefold by Schubert calculus.

    The ideal cuts the flag variety Fl(1,2;4) in P3 x P5 (Pluecker quadric
    and four (1,1) incidence forms) by one (0,1) and one (2,2) form.
    """
    # H1^i H2^(5-i) on Fl(1,2;4) for i = 0..4
    fl = (0, 2, 2, 1, 0)
    # [X] = H2 (2 H1 + 2 H2), so H1^a H2^(3-a) on X is 2 fl[a+1] + 2 fl[a]
    tri = tuple(2 * fl[a + 1] + 2 * fl[a] for a in (3, 2, 1, 0))
    # chi(H1) and chi(H2) count the independent coordinates (Kawamata-Viehweg):
    # 4, and 6 less the (0,1) form; chi(D) = D^3/6 + c2.D/12 then gives c2.D
    chi_h1, chi_h2 = 4, 6 - 1
    c2 = (12 * chi_h1 - 2 * tri[0], 12 * chi_h2 - 2 * tri[3])
    return tri, c2


def test_criterion_2_hilbert_fit_recovers_reference_numbers(ex41_fit, ex41_ideal):
    tri, c2 = _pfaffian_model_expected()
    got = ex41_fit.triform.as_tuple()
    got_c2 = ex41_fit.c2form.as_tuple()
    # The fit samples only a, b >= 1, where x_i times the Pluecker quadric
    # already lies in the ideal of the incidence forms; degree (0, 2) is where
    # the quadric itself shows.  2H2 is nef and big, so h0 = chi there.
    chi_2h2 = Fraction(8 * tri[3], 6) + Fraction(2 * c2[1], 12)
    dim_02 = hilbert_dim(ex41_ideal, (0, 2))
    ok = got == tri and got_c2 == c2 and dim_02 == chi_2h2 and ex41_fit.elapsed < 60
    _report(
        "criterion-2 hilbert fit reproduces the ideal's Schubert numbers",
        ok,
        f"fit gives {got} with c2 {got_c2} in {ex41_fit.elapsed:.1f}s; Schubert "
        f"numbers of Fl(1,2;4) times H2(2H1+2H2) give {tri} with c2 {c2}; "
        f"dim of degree (0, 2) is {dim_02}, chi(2H2) = {chi_2h2}",
    )


def test_criterion_3_chow_exact_values():
    t0 = time.perf_counter()
    tri, c2 = intersection_data(CIData(MultiProjAmbient((3, 3)), ((1, 1), (1, 1), (2, 2))))
    quintic = CIData(MultiProjAmbient((4,)), ((5,),))
    c1q, c2q = ci_chern(quintic)
    c2h = integrate(quintic, multiply(quintic.ambient, c2q, {(1,): 1}))
    elapsed = time.perf_counter() - t0
    ok = (
        tri.as_tuple() == (2, 6, 6, 2)
        and c1q == {}
        and c2h == 50
        and elapsed < 1.0
    )
    _report(
        "criterion-3 chow intersection calculus",
        ok,
        f"triple products {tri.as_tuple()}, quintic c2.H = {c2h}, {elapsed * 1e3:.0f}ms",
    )


def _phase_grid(lam: QuadNum, m0: int = 256, n: int = 13) -> list[int]:
    """m_k = floor(m0 * lambda^(2k)): one sample per period of the sigma-wobble."""
    lam2 = lam * lam
    return [(lam2**k * m0).floor() for k in range(n)]


def test_criterion_4_growth_exponent_windows(ex41, oguiso):
    t0 = time.perf_counter()
    ms_ex = _phase_grid(ex41.sigma.eigenvalue)
    ms_og = _phase_grid(oguiso.sigma.eigenvalue)
    slope_ex = estimate_exponent(
        sweep(ex41.model, ex41.sigma, ex41.pi, A55, ms_ex, ray="r1")
    ).slope
    slope_og = estimate_exponent(
        sweep(oguiso.model, oguiso.sigma, oguiso.pi, A55, ms_og, ray="r1")
    ).slope
    slope_ctl = estimate_exponent(
        sweep(ex41.model, ex41.sigma, ex41.pi, A55, ms_ex, ray=D(1, 0))
    ).slope
    elapsed = time.perf_counter() - t0
    ok = (
        1.48 <= slope_ex <= 1.52
        and 1.48 <= slope_og <= 1.52
        and 2.95 <= slope_ctl <= 3.05
        and elapsed < 5.0
    )
    pow2 = geometric_grid(256, 1 << 20)
    old_ex = estimate_exponent(
        sweep(ex41.model, ex41.sigma, ex41.pi, A55, pow2, ray="r1")
    ).slope
    old_og = estimate_exponent(
        sweep(oguiso.model, oguiso.sigma, oguiso.pi, A55, pow2, ray="r1")
    ).slope
    _report(
        "criterion-4 boundary-ray growth exponent 3/2 at desk scale",
        ok,
        f"slopes on m = floor(2^8 lambda^2k), k = 0..12: boundary {slope_ex:.4f} "
        f"(window [1.48, 1.52]), second model {slope_og:.4f}, big-class control "
        f"{slope_ctl:.4f} in {elapsed:.1f}s; for information, the 2^8..2^20 grid "
        f"covers about one wobble period and reads {old_ex:.4f} and {old_og:.4f}",
    )


def test_criterion_5_exact_property_suites(ex41):
    rng = random.Random(20250810)
    suites = (
        (area_invariance, 10_000),
        (slope_scaling, 10_000),
        (wall_crossing_sandwich, 1_000),
        (section_count_word_invariance, 1_000),
        (chi_integrality, 32),
        (floor_bracketing, 10_000),
        (cone_membership, 10_000),
    )
    problems = [p for suite, count in suites if (p := suite(ex41, rng, count))]
    _report("criterion-5 exact randomized property suites", not problems, "; ".join(problems))


def test_criterion_6_empirical_bands(ex41):
    model, s, pi = ex41.model, ex41.sigma, ex41.pi
    rng = random.Random(6)

    for _ in range(1_000):
        p, q = rng.randint(0, 99), rng.randint(0, 99)
        if p + q == 0:
            continue
        assert 7 * chi_nef(model, D(p, q)) > model.triform.cube(p, q)

    recs = sweep(model, s, pi, A55, geometric_grid())
    ratios = [r.h0 / float(r.l1) ** 1.5 for r in recs]
    band_ok = min(ratios) > 0 and max(ratios) / min(ratios) <= 1000

    samples = [(DivisorClass(s.ray1.p * m, s.ray1.q * m), A55) for m in (10, 100, 1000, 10000)]
    samples += [
        (DivisorClass(QuadNum(Fraction(rng.randint(-500, 2000), 7)),
                      QuadNum(Fraction(rng.randint(50, 4000), 3))), A55)
        for _ in range(200)
    ]
    rd = rounddown_check(s, samples)
    rd_ok = rd.ratio_min > 0 and rd.ratio_max / rd.ratio_min <= 1000

    _report(
        "criterion-6 empirical growth bands",
        band_ok and rd_ok,
        f"h0/area^1.5 in [{min(ratios):.1f}, {max(ratios):.1f}], "
        f"round-down ratios in [{rd.ratio_min:.3f}, {rd.ratio_max:.3f}]",
    )


def test_criterion_7_cross_oracle_agreement(ex41, oguiso_fit, ex41_ideal):
    tri_chow, c2_chow = intersection_data(
        CIData(MultiProjAmbient((3, 3)), ((1, 1), (1, 1), (2, 2)))
    )
    six_agree = (
        tri_chow == oguiso_fit.triform and c2_chow == oguiso_fit.c2form
    )
    chi_h1 = chi_nef(ex41.model, D(1, 0))
    chi_h2 = chi_nef(ex41.model, D(0, 1))
    dims = (hilbert_dim(ex41_ideal, (1, 0)), hilbert_dim(ex41_ideal, (0, 1)))
    ok = six_agree and (chi_h1, chi_h2) == dims
    _report(
        "criterion-7 cross-oracle agreement",
        ok,
        f"second model: chow {tri_chow.as_tuple()}/{c2_chow.as_tuple()} vs fit "
        f"{oguiso_fit.triform.as_tuple()}/{oguiso_fit.c2form.as_tuple()}; "
        f"pfaffian model: chi ({chi_h1}, {chi_h2}) vs graded dims {dims}",
    )

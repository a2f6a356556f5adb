"""The growth experiment: floors of m times a boundary ray, the section-count
sweep, least-squares growth-exponent estimation, and round-down stability
checks.  All section counts are exact integers; only the final fit runs in
double precision."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cones import (
    Cone2,
    CYModel,
    DivisorClass,
    SigmaData,
    area_coordinate,
    eigen_coords,
    in_open_movable,
)
from .exact import QuadNum
from .riemann_roch import h0_movable

CSV_HEADER = "m,p,q,h0,l1_approx,word_len,skipped"
L1_DIGITS = 30  # significant digits of l1_approx in the CSV


@dataclass(frozen=True)
class SweepRecord:
    """One row of the growth experiment.

    l1 is the invariant area of the exact (un-floored) class m*ray + A.
    Records with the floored class outside the open movable cone carry
    skipped=True and a zero section count.
    """

    m: int
    floored: DivisorClass
    h0: int
    l1: QuadNum
    word_length: int
    skipped: bool = False


@dataclass(frozen=True)
class FitReport:
    slope: float
    intercept: float
    residual: float
    band_min: float
    band_max: float


@dataclass(frozen=True)
class RounddownReport:
    ratios: tuple[float, ...]
    ratio_min: float
    ratio_max: float


def floor_class(m: int, ray: DivisorClass, ample: DivisorClass) -> DivisorClass:
    """Coefficient-wise floor of m*ray in the (H1, H2) basis, plus ample."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    ap, aq = ample.integer_coords()
    return DivisorClass.from_ints((ray.p * m).floor() + ap, (ray.q * m).floor() + aq)


def geometric_grid(mmin: int = 256, mmax: int = 1 << 20) -> list[int]:
    if mmin < 1 or mmax < mmin:
        raise ValueError("need 1 <= mmin <= mmax")
    ms = []
    m = mmin
    while m <= mmax:
        ms.append(m)
        m *= 2
    return ms


def _check_ample(ample: DivisorClass) -> None:
    p, q = ample.integer_coords()
    if min(p, q) <= 0:
        raise ValueError(f"{ample} is not ample (not interior to the nef cone)")
    if p < 2 or q < 2:
        raise ValueError(f"ample shift needs coordinates >= 2 in the (H1, H2) basis, got ({p},{q})")


def _resolve_direction(s: SigmaData, ray) -> DivisorClass:
    if isinstance(ray, DivisorClass):
        return ray
    if ray == "r1":
        return s.ray1
    if ray == "r2":
        return s.ray2
    raise ValueError(f"ray must be 'r1', 'r2' or a divisor class, got {ray!r}")


def sweep(
    model: CYModel,
    s: SigmaData,
    pi: Cone2,
    ample: DivisorClass,
    ms,
    ray="r1",
) -> list[SweepRecord]:
    """One record per m along the chosen direction; skipped rows are kept.

    The eigen-coordinates are linear, so those of m*direction + ample are
    m*alpha + beta with alpha, beta taken once per sweep, and l1 costs one
    product per row."""
    _check_ample(ample)
    ms = list(ms)
    if any(m2 <= m1 for m1, m2 in zip(ms, ms[1:])):
        raise ValueError("m values must be strictly increasing")
    direction = _resolve_direction(s, ray)
    (al1, al2), (be1, be2) = eigen_coords(direction, s), eigen_coords(ample, s)
    records = []
    for m in ms:
        floored = floor_class(m, direction, ample)
        l1 = (al1 * m + be1) * (al2 * m + be2)
        if in_open_movable(floored, s):
            h0, word = h0_movable(model, s, pi, floored)
            records.append(SweepRecord(m, floored, h0, l1, len(word)))
        else:
            records.append(SweepRecord(m, floored, 0, l1, 0, skipped=True))
    return records


def estimate_exponent(records) -> FitReport:
    """Least-squares slope of log h0 against log m, with the h0/m^(3/2) band."""
    live = [r for r in records if not r.skipped]
    if len(live) < 8:
        raise ValueError(f"insufficient span: need at least 8 records, got {len(live)}")
    span = math.log10(live[-1].m / live[0].m)
    if span < 3:
        raise ValueError(f"insufficient span: {span:.2f} decades < 3")
    if any(r.h0 <= 0 for r in live):
        raise ValueError("degenerate fit: non-positive section count")
    xs = [math.log(r.m) for r in live]
    ys = [math.log(r.h0) for r in live]
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    sxx = sum((x - xbar) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate fit: all m identical")
    if all(y == ys[0] for y in ys):
        raise ValueError("degenerate fit: constant section counts")
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    intercept = ybar - slope * xbar
    residual = math.sqrt(
        sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys)) / n
    )
    bands = [r.h0 / r.m**1.5 for r in live]
    return FitReport(slope, intercept, residual, min(bands), max(bands))


def rounddown_check(s: SigmaData, samples) -> RounddownReport:
    """Exact ratio of invariant areas before and after coefficient-wise
    round-down; raises if the band is non-positive or wider than 10^3."""
    ratios: list[QuadNum] = []
    for D, ample in samples:
        _check_ample(ample)
        floored = DivisorClass.from_ints(
            D.p.floor() + ample.integer_coords()[0],
            D.q.floor() + ample.integer_coords()[1],
        )
        real = DivisorClass(D.p + ample.p, D.q + ample.q)
        ratio = area_coordinate(floored, s) / area_coordinate(real, s)
        if ratio.compare(0) <= 0:
            raise ValueError(f"round-down area ratio not positive for {D}")
        ratios.append(ratio)
    if not ratios:
        raise ValueError("no samples")
    rmin, rmax = min(ratios), max(ratios)
    if rmax.compare(rmin * 1000) > 0:
        raise ValueError("round-down ratio band exceeds 10^3")
    return RounddownReport(tuple(float(r) for r in ratios), float(rmin), float(rmax))


def render_l1(x: QuadNum) -> str:
    """Decimal rendering at L1_DIGITS significant digits.

    The exact value is rounded half up at the last digit and written in
    fixed point for decimal exponents e with min(-(L1_DIGITS // 3), -5) < e
    < L1_DIGITS, otherwise as "d.ddd" plus "e+N"/"e-N"; trailing zeros are
    stripped down to "X.0".
    """
    if not x:
        return "0.0"
    f = x.floor()
    negative = f < 0
    if negative:
        x = -x
        f = x.floor()
    # 10**e <= x < 10**(e + 1), except e is one too small at x = 10**-k
    e = len(str(f)) - 1 if f else -len(str(x.inverse().floor()))
    m = (x * Fraction(10) ** (L1_DIGITS - e)).floor()
    if m >= 10 ** (L1_DIGITS + 1):
        e, m = e + 1, m // 10
    n = (m + 5) // 10
    if n == 10**L1_DIGITS:
        e, n = e + 1, n // 10
    text = str(n)
    fixed = min(-(L1_DIGITS // 3), -5) < e < L1_DIGITS
    if fixed and e < 0:
        text, e = "0" * -e + text, 0
    split = e + 1 if fixed else 1
    text = text[:split] + "." + (text[split:].rstrip("0") or "0")
    return ("-" if negative else "") + text + ("" if fixed else f"e{e:+d}")


def write_csv(records, fp) -> None:
    fp.write(CSV_HEADER + "\n")
    for r in records:
        p, q = r.floored.integer_coords()
        fp.write(
            f"{r.m},{p},{q},{r.h0},{render_l1(r.l1)},{r.word_length},{int(r.skipped)}\n"
        )

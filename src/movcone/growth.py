"""The growth experiment: floors of m times a boundary ray, the section-count
sweep and least-squares growth-exponent estimation.  All section counts are
exact integers, the floors, each row's area l1 and its CSV rendering work on
integer numerators (p + q*sqrt(d)) / n, and only the final fit runs in floats."""

from __future__ import annotations

import math

from .cones import (
    CYModel,
    DivisorClass,
    NotMovable,
    SigmaData,
    _area_value,
    _eigen_numerators,
    _Value,
)
from .exact import QuadNum, quad_floor
from .riemann_roch import h0_movable

CSV_HEADER = "m,p,q,h0,l1_approx,word_len,skipped"
L1_DIGITS = 30  # significant digits of l1_approx in the CSV


class SweepRecord(_Value):
    """One row of the growth experiment.

    l1 is the invariant area of the exact (un-floored) class m*ray + A.
    Records whose floored class the reduction refuses with NotMovable (it is
    outside the open movable cone) carry skipped=True and a zero section count.
    """

    __slots__ = ("m", "floored", "h0", "l1", "word_length", "skipped")


class FitReport(_Value):
    __slots__ = ("slope", "intercept", "residual", "band_min", "band_max")


def floor_class(m: int, ray: DivisorClass, ample: DivisorClass) -> DivisorClass:
    """Coefficient-wise floor of m*ray in the (H1, H2) basis, plus ample: with
    a coordinate (p + q*sqrt(d)) / n of ray, the floor of (m*p + m*q*sqrt(d)) / n."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    ap, aq = ample.integer_coords()
    (p1, q1, n1), (p2, q2, n2) = ray.p.numerators(), ray.q.numerators()
    return DivisorClass.from_ints(quad_floor(m * p1, m * q1, ray.p.d, n1) + ap, quad_floor(m * p2, m * q2, ray.q.d, n2) + aq)


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
    pi: tuple[tuple[int, int], tuple[int, int]],
    ample: DivisorClass,
    ms,
    ray="r1",
) -> list[SweepRecord]:
    """One record per m along the chosen direction; skipped rows are kept.

    A row is skipped exactly when the reduction raises NotMovable.  The
    eigen-coordinates of m*direction + ample have the integer numerators
    m*alpha + beta over one n, alpha and beta taken once per sweep, and l1
    is their area a1*a2, one QuadNum built per row."""
    _check_ample(ample)
    ms = list(ms)
    if any(m2 <= m1 for m1, m2 in zip(ms, ms[1:])):
        raise ValueError("m values must be strictly increasing")
    direction, d = _resolve_direction(s, ray), s.eigenvalue.d
    # ample is integral, so its numerators are over the dual basis' n, which divides alpha's
    (A1, B1, A2, B2, n), (*beta, k) = _eigen_numerators(direction, s), _eigen_numerators(ample, s)
    C1, D1, C2, D2 = (x * (n // k) for x in beta)
    records = []
    for m in ms:
        floored = floor_class(m, direction, ample)
        l1 = _area_value(m * A1 + C1, m * B1 + D1, m * A2 + C2, m * B2 + D2, n, d)
        try:
            h0, word = h0_movable(model, s, pi, floored)
            records.append(SweepRecord(m, floored, h0, l1, len(word), False))
        except NotMovable:
            records.append(SweepRecord(m, floored, 0, l1, 0, True))
    return records


def estimate_exponent(records: list[SweepRecord]) -> FitReport:
    """Least-squares slope of log h0 against log m, with the h0/m^(3/2) band."""
    live = [r for r in records if not r.skipped]
    if len(live) < 8:
        skipped = len(records) - len(live)
        note = f" ({skipped} skipped outside the open movable cone)" if skipped else ""
        raise ValueError(f"insufficient span: need at least 8 records, got {len(live)}{note}")
    # decided exactly: no h0 or m, of any size, becomes a float on its own
    if live[-1].m < 1000 * live[0].m:
        span = math.log10(live[-1].m) - math.log10(live[0].m)
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
    try:
        bands = [math.sqrt(r.h0**2 / r.m**3) for r in live]
    except OverflowError:
        raise ValueError("h0/m^1.5 band too large to report: h0^2/m^3 exceeds the float range") from None
    return FitReport(slope, intercept, residual, min(bands), max(bands))


def render_l1(x: QuadNum) -> str:
    """Decimal rendering at L1_DIGITS significant digits.

    The exact value is rounded half up at the last digit and written in
    fixed point for decimal exponents e with min(-(L1_DIGITS // 3), -5) < e
    < L1_DIGITS, otherwise as "d.ddd" plus "e+N"/"e-N"; trailing zeros are
    stripped down to "X.0".
    """
    (p, q, n), d = x.numerators(), x.d
    if not (p or q):
        return "0.0"
    f = quad_floor(p, q, d, n)
    negative = f < 0
    if negative:
        p, q = -p, -q
        f = quad_floor(p, q, d, n)
    # 10**e <= x < 10**(e + 1), except e is one too small at x = 10**-k;
    # 1/x = n*(p - q*sqrt(d)) / norm, numerator and denominator negated when norm < 0
    norm = p * p - q * q * d
    t = 1 if norm > 0 else -1
    e = len(str(f)) - 1 if f else -len(str(quad_floor(t * n * p, -t * n * q, d, t * norm)))
    k = L1_DIGITS - e
    m = quad_floor(p * 10**k, q * 10**k, d, n) if k >= 0 else quad_floor(p, q, d, n * 10**-k)
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

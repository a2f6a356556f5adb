"""Intersection theory for complete intersections in products of projective
spaces: truncated Chow-ring arithmetic, Chern classes by adjunction, and
exact integration of zero-cycles.
"""

from __future__ import annotations

from .cones import C2Form, TriForm, _Value


class MultiProjAmbient(_Value):
    """Product P^{n1} x ... x P^{nk}, k >= 1, all ni >= 1."""

    __slots__ = ("factor_dims",)

    def __init__(self, factor_dims: tuple[int, ...]):
        dims = tuple(int(n) for n in factor_dims)
        if not dims or any(n < 1 for n in dims):
            raise ValueError(f"invalid factor dimensions {dims}")
        self._init(dims)

    @property
    def k(self) -> int:
        return len(self.factor_dims)

    @property
    def total_dim(self) -> int:
        return sum(self.factor_dims)


class TruncPoly:
    """Element of Z[h1..hk]/(hi^(ni+1)): dense dict over the exponent box."""

    __slots__ = ("ambient", "coeffs")

    def __init__(self, ambient: MultiProjAmbient, coeffs=None):
        self.ambient = ambient
        caps = ambient.factor_dims
        clean = {}
        for exp, c in (coeffs or {}).items():
            exp = tuple(exp)
            if c and all(e <= cap for e, cap in zip(exp, caps)):
                clean[exp] = int(c)
        self.coeffs = clean

    @classmethod
    def zero(cls, ambient: MultiProjAmbient) -> TruncPoly:
        return cls(ambient)

    @classmethod
    def one(cls, ambient: MultiProjAmbient) -> TruncPoly:
        return cls(ambient, {(0,) * ambient.k: 1})

    @classmethod
    def variable(cls, ambient: MultiProjAmbient, i: int) -> TruncPoly:
        exp = [0] * ambient.k
        exp[i] = 1
        return cls(ambient, {tuple(exp): 1})

    @classmethod
    def linear(cls, ambient: MultiProjAmbient, vec) -> TruncPoly:
        out = {}
        for i, c in enumerate(vec):
            if c:
                exp = [0] * ambient.k
                exp[i] = 1
                out[tuple(exp)] = int(c)
        return cls(ambient, out)

    def coeff(self, exp) -> int:
        return self.coeffs.get(tuple(exp), 0)

    def __eq__(self, other):
        return (
            isinstance(other, TruncPoly)
            and self.ambient == other.ambient
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ambient, tuple(sorted(self.coeffs.items()))))

    def __add__(self, other: TruncPoly) -> TruncPoly:
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, 0) + c
        return TruncPoly(self.ambient, out)

    def __sub__(self, other: TruncPoly) -> TruncPoly:
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, 0) - c
        return TruncPoly(self.ambient, out)

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncPoly(self.ambient, {e: c * other for e, c in self.coeffs.items()})
        caps = self.ambient.factor_dims
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                if all(e <= cap for e, cap in zip(exp, caps)):
                    out[exp] = out.get(exp, 0) + c1 * c2
        return TruncPoly(self.ambient, out)

    __rmul__ = __mul__

    def graded_part(self, deg: int) -> TruncPoly:
        return TruncPoly(
            self.ambient, {e: c for e, c in self.coeffs.items() if sum(e) == deg}
        )

    def homogeneous_degree(self):
        """Common total degree of all terms, None if zero or mixed."""
        degs = {sum(e) for e in self.coeffs}
        return degs.pop() if len(degs) == 1 else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "TruncPoly(0)"
        terms = []
        for exp in sorted(self.coeffs, key=lambda e: (sum(e), e)):
            mono = "*".join(f"h{i + 1}^{e}" if e > 1 else f"h{i + 1}" for i, e in enumerate(exp) if e)
            terms.append(f"{self.coeffs[exp]}" + (f"*{mono}" if mono else ""))
        return "TruncPoly(" + " + ".join(terms) + ")"


class CIData(_Value):
    """Complete intersection cut out by hypersurfaces of the given multidegrees."""

    __slots__ = ("ambient", "degrees")

    def __init__(self, ambient: MultiProjAmbient, degrees: tuple[tuple[int, ...], ...]):
        degs = tuple(tuple(int(x) for x in d) for d in degrees)
        for d in degs:
            if len(d) != ambient.k:
                raise ValueError(f"multidegree {d} does not match ambient with {ambient.k} factors")
            if any(x < 0 for x in d) or not any(d):
                raise ValueError(f"invalid multidegree {d}")
        self._init(ambient, degs)
        if self.dim < 0:
            raise ValueError("more hypersurfaces than ambient dimensions")

    @property
    def dim(self) -> int:
        return self.ambient.total_dim - len(self.degrees)

    @property
    def is_calabi_yau(self) -> bool:
        sums = [sum(d[i] for d in self.degrees) for i in range(self.ambient.k)]
        return all(s == n + 1 for s, n in zip(sums, self.ambient.factor_dims))


def ambient_tangent_chern(ambient: MultiProjAmbient) -> TruncPoly:
    """Total Chern class prod_i (1 + h_i)^(n_i + 1) of the ambient tangent bundle."""
    total = TruncPoly.one(ambient)
    for i, n in enumerate(ambient.factor_dims):
        factor = TruncPoly.one(ambient) + TruncPoly.variable(ambient, i)
        for _ in range(n + 1):
            total = total * factor
    return total


def _geometric_inverse(divisor: TruncPoly) -> TruncPoly:
    """(1 + D)^(-1) as the terminating series sum_t (-D)^t."""
    ambient = divisor.ambient
    total = TruncPoly.one(ambient)
    term = TruncPoly.one(ambient)
    for _ in range(ambient.total_dim):
        term = term * divisor * (-1)
        if term.is_zero():
            break
        total = total + term
    return total


def ci_chern(ci: CIData) -> tuple[TruncPoly, TruncPoly]:
    """First and second Chern classes of the complete intersection by adjunction."""
    total = ambient_tangent_chern(ci.ambient)
    for deg in ci.degrees:
        total = total * _geometric_inverse(TruncPoly.linear(ci.ambient, deg))
    return total.graded_part(1), total.graded_part(2)


def integrate(ci: CIData, cls: TruncPoly) -> int:
    """Degree of the zero-cycle cls restricted to the complete intersection.

    Multiplies by the product of the defining divisors and reads off the
    coefficient of the ambient top monomial.
    """
    if not cls.is_zero() and cls.homogeneous_degree() != ci.dim:
        raise ValueError(
            f"class of degree {cls.homogeneous_degree()} cannot be integrated over a "
            f"{ci.dim}-dimensional complete intersection"
        )
    total = cls
    for deg in ci.degrees:
        total = total * TruncPoly.linear(ci.ambient, deg)
    return total.coeff(ci.ambient.factor_dims)


def intersection_data(ci: CIData) -> tuple[TriForm, C2Form]:
    """All triple products and c2-degrees of a threefold with two factors."""
    if ci.ambient.k != 2:
        raise ValueError("intersection data requires exactly two projective factors")
    if ci.dim != 3:
        raise ValueError(f"intersection data requires a threefold, got dimension {ci.dim}")
    h1 = TruncPoly.variable(ci.ambient, 0)
    h2 = TruncPoly.variable(ci.ambient, 1)
    tri = TriForm(
        integrate(ci, h1 * h1 * h1),
        integrate(ci, h1 * h1 * h2),
        integrate(ci, h1 * h2 * h2),
        integrate(ci, h2 * h2 * h2),
    )
    c1, c2 = ci_chern(ci)
    if not c1.is_zero():
        raise ValueError("threefold is not Calabi-Yau (c1 != 0); c2 pairing not supported")
    c2f = C2Form(integrate(ci, c2 * h1), integrate(ci, c2 * h2))
    return tri, c2f

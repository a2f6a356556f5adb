"""Intersection theory for complete intersections in products of projective
spaces.  A Chow class is a plain dict {exponent tuple: integer coefficient}
in Z[h1..hk]/(hi^(ni+1)); Chern classes come by adjunction and zero-cycles
are integrated exactly.
"""

from __future__ import annotations

from itertools import product
from math import comb, prod

from .cones import C2Form, TriForm, _Value


class MultiProjAmbient(_Value):
    """Product P^{n1} x ... x P^{nk}, k >= 1, all ni >= 1."""

    __slots__ = ("factor_dims",)

    def __init__(self, factor_dims: tuple[int, ...]):
        dims = tuple(int(n) for n in factor_dims)
        if not dims or any(n < 1 for n in dims):
            raise ValueError(f"invalid factor dimensions {dims}")
        super().__init__(dims)


class CIData(_Value):
    """Complete intersection cut out by hypersurfaces of the given multidegrees."""

    __slots__ = ("ambient", "degrees")

    def __init__(self, ambient: MultiProjAmbient, degrees: tuple[tuple[int, ...], ...]):
        k = len(ambient.factor_dims)
        degs = tuple(tuple(int(x) for x in d) for d in degrees)
        for d in degs:
            if len(d) != k:
                raise ValueError(f"multidegree {d} does not match ambient with {k} factors")
            if any(x < 0 for x in d) or not any(d):
                raise ValueError(f"invalid multidegree {d}")
        super().__init__(ambient, degs)
        if self.dim < 0:
            raise ValueError("more hypersurfaces than ambient dimensions")

    @property
    def dim(self) -> int:
        return sum(self.ambient.factor_dims) - len(self.degrees)

    @property
    def is_calabi_yau(self) -> bool:
        """c1 = sum_i (n_i + 1 - sum_j d_ji) h_i vanishes."""
        dims = self.ambient.factor_dims
        return all(sum(d[i] for d in self.degrees) == n + 1 for i, n in enumerate(dims))


def multiply(ambient: MultiProjAmbient, f: dict, g: dict) -> dict:
    """Product of two classes, truncated at h_i^(n_i + 1); no zero coefficients."""
    caps = ambient.factor_dims
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            if all(e <= cap for e, cap in zip(exp, caps)):
                out[exp] = out.get(exp, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _linear(vec) -> dict:
    """The divisor class sum_i vec_i h_i."""
    return {tuple(int(i == j) for j in range(len(vec))): c for i, c in enumerate(vec) if c}


def ambient_tangent_chern(ambient: MultiProjAmbient) -> dict:
    """Total Chern class prod_i (1 + h_i)^(n_i + 1): coefficient prod_i C(n_i + 1, e_i)."""
    dims = ambient.factor_dims
    return {
        e: prod(comb(n + 1, x) for n, x in zip(dims, e))
        for e in product(*(range(n + 1) for n in dims))
    }


def ci_chern(ci: CIData) -> tuple[dict, dict]:
    """First and second Chern classes of the complete intersection by adjunction,
    c(X) = c(P) * prod_j (1 + D_j)^(-1), each inverse the terminating sum of (-D_j)^t."""
    amb = ci.ambient
    total = ambient_tangent_chern(amb)
    for deg in ci.degrees:
        minus_d = _linear([-x for x in deg])
        term = total
        while term:
            term = multiply(amb, term, minus_d)
            for e, c in term.items():
                total[e] = total.get(e, 0) + c
    return tuple({e: c for e, c in total.items() if c and sum(e) == g} for g in (1, 2))


def integrate(ci: CIData, cls: dict) -> int:
    """Degree of the zero-cycle cls restricted to the complete intersection.

    Multiplies by the product of the defining divisors and reads off the
    coefficient of the ambient top monomial.
    """
    degs = {sum(e) for e, c in cls.items() if c}
    if degs and degs != {ci.dim}:
        raise ValueError(
            f"class of degree {degs.pop() if len(degs) == 1 else None} cannot be integrated "
            f"over a {ci.dim}-dimensional complete intersection"
        )
    for deg in ci.degrees:
        cls = multiply(ci.ambient, cls, _linear(deg))
    return cls.get(ci.ambient.factor_dims, 0)


def _drop_hyperplanes(ci: CIData) -> CIData:
    """The same variety in a smaller product: each row h_i with n_i > 1 cuts
    P^{n_i} to P^{n_i - 1} and leaves every intersection number unchanged."""
    dims = list(ci.ambient.factor_dims)
    rows = []
    for d in ci.degrees:
        i = d.index(1) if sum(d) == 1 else None
        if i is not None and dims[i] > 1:
            dims[i] -= 1
        else:
            rows.append(d)
    return CIData(MultiProjAmbient(tuple(dims)), tuple(rows))


def intersection_data(ci: CIData) -> tuple[TriForm, C2Form]:
    """All triple products and c2-degrees of a Calabi-Yau threefold with two factors."""
    if len(ci.ambient.factor_dims) != 2:
        raise ValueError("intersection data requires exactly two projective factors")
    if ci.dim != 3:
        raise ValueError(f"intersection data requires a threefold, got dimension {ci.dim}")
    if not ci.is_calabi_yau:
        raise ValueError("threefold is not Calabi-Yau (c1 != 0); c2 pairing not supported")
    ci = _drop_hyperplanes(ci)
    tri = TriForm(*(integrate(ci, {(3 - j, j): 1}) for j in range(4)))
    _, c2 = ci_chern(ci)
    c2f = C2Form(*(integrate(ci, multiply(ci.ambient, c2, h)) for h in ({(1, 0): 1}, {(0, 1): 1})))
    return tri, c2f

"""Rank-2 lattice model of the movable cone of a Calabi-Yau threefold.

Divisor classes are pairs over the integral basis (H1, H2).  Two birational
involutions tau1, tau2 (each of determinant -1, each fixing one nef boundary
ray) generate an infinite dihedral action; their composition sigma = tau2.tau1
is an infinite-order isometry whose eigenrays span the movable cone over
Q(sqrt(d)).  This module builds the exact eigen-analysis, the fundamental
domain, the invariant area/slope coordinates, and the reduction of movable
classes into the fundamental domain.

Matrix convention: columns are the images of H1, H2 written in the (H1, H2)
basis, so a map with t(H2) = 6*H1 - H2 has matrix [[1, 6], [0, -1]].
"""

from __future__ import annotations

from fractions import Fraction

from .exact import QuadNum, squarefree_decompose

SIGMA = "sigma"
SIGMA_INV = "sigma_inv"
TAU2 = "tau2"

_set = object.__setattr__


class _Value:
    """Base of the value types.  A subclass names its fields in __slots__ (a
    slot whose name starts with "_" is no field), and its __init__ passes
    their values, in that order, to _init.  Equal means the same class with
    equal fields, the hash is that of the field tuple, and assigning to an
    attribute raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")

    def _init(self, *values):
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class DivisorClass(_Value):
    """Class p*H1 + q*H2 with exact (possibly irrational) coordinates."""

    __slots__ = ("p", "q")

    def __init__(self, p: QuadNum, q: QuadNum):  # built on every step: no _init loop
        _set(self, "p", p)
        _set(self, "q", q)

    @classmethod
    def from_ints(cls, p: int, q: int) -> DivisorClass:
        return cls(QuadNum(p), QuadNum(q))

    @property
    def is_integral(self) -> bool:
        return (
            self.p.is_rational
            and self.q.is_rational
            and self.p.a.denominator == 1
            and self.q.a.denominator == 1
        )

    def integer_coords(self) -> tuple[int, int]:
        if not self.is_integral:
            raise ValueError(f"{self} is not an integral class")
        return int(self.p.a), int(self.q.a)

    def __add__(self, other: DivisorClass) -> DivisorClass:
        return DivisorClass(self.p + other.p, self.q + other.q)

    def __neg__(self) -> DivisorClass:
        return DivisorClass(-self.p, -self.q)

    def scale(self, s) -> DivisorClass:
        return DivisorClass(self.p * s, self.q * s)

    def __iter__(self):
        """Unpacks as (p, q), like an integer pair."""
        return iter((self.p, self.q))

    def __str__(self):
        return f"[{self.p}, {self.q}]"


def det2(u, v):
    """Exact 2x2 determinant of (u, v), for classes and integer pairs alike."""
    (up, uq), (vp, vq) = u, v
    return up * vq - uq * vp


def _rational_pair(D: DivisorClass):
    """(p, q) of a rational class as ints or Fractions, None for an irrational one."""
    p, q = D.p, D.q
    if p.is_rational and q.is_rational:
        p, q = p.a, q.a
        if p.denominator == 1 and q.denominator == 1:
            return p.numerator, q.numerator
        return p, q
    return None


def _sign(x) -> int:
    return x.compare(0) if isinstance(x, QuadNum) else (x > 0) - (x < 0)


def coord_signs(r1, r2, D) -> tuple[int, int]:
    """Signs of the coordinates of D in the basis (r1, r2), decided by three
    det2 values without dividing; classes and integer pairs alike."""
    o = _sign(det2(r1, r2))
    return o * _sign(det2(D, r2)), o * _sign(det2(r1, D))


class TriForm(_Value):
    """Symmetric trilinear intersection form via its values on H1, H2."""

    __slots__ = ("t111", "t112", "t122", "t222")

    def __init__(self, t111: int, t112: int, t122: int, t222: int):
        self._init(t111, t112, t122, t222)

    def cube(self, p, q):
        """D^3 for D = p*H1 + q*H2; works for int, Fraction or QuadNum."""
        return (
            self.t111 * p * p * p
            + 3 * self.t112 * p * p * q
            + 3 * self.t122 * p * q * q
            + self.t222 * q * q * q
        )

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.t111, self.t112, self.t122, self.t222)


class C2Form(_Value):
    """Linear form D -> c2(X).D via its values on H1, H2."""

    __slots__ = ("h1", "h2")

    def __init__(self, h1: int, h2: int):
        self._init(h1, h2)

    def pair(self, p, q):
        return self.h1 * p + self.h2 * q

    def as_tuple(self) -> tuple[int, int]:
        return (self.h1, self.h2)


class LatticeMap(_Value):
    """Integer 2x2 matrix [[a, b], [c, d]] acting on (p, q) coordinates."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d == b * c:
            raise ValueError("lattice map must be invertible")
        self._init(a, b, c, d)

    @classmethod
    def identity(cls) -> LatticeMap:
        return cls(1, 0, 0, 1)

    @classmethod
    def from_flat(cls, vals) -> LatticeMap:
        a, b, c, d = (int(v) for v in vals)
        return cls(a, b, c, d)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def apply(self, D: DivisorClass) -> DivisorClass:
        pq = _rational_pair(D)
        if pq is None:
            return DivisorClass(D.p * self.a + D.q * self.b, D.p * self.c + D.q * self.d)
        return DivisorClass(*(QuadNum(v) for v in self.apply_pair(pq)))

    def apply_pair(self, u: tuple[int, int]) -> tuple[int, int]:
        p, q = u
        return self.a * p + self.b * q, self.c * p + self.d * q

    def __matmul__(self, other: LatticeMap) -> LatticeMap:
        return LatticeMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> LatticeMap:
        dt = self.det()
        if dt not in (1, -1):
            raise ValueError("only unimodular maps have integral inverses")
        return LatticeMap(self.d * dt, -self.b * dt, -self.c * dt, self.a * dt)

    def pow(self, k: int) -> LatticeMap:
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = LatticeMap.identity()
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def flat(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


class Cone2(_Value):
    """Closed 2-dimensional cone spanned by two non-proportional rays."""

    __slots__ = ("ray1", "ray2")

    def __init__(self, ray1: DivisorClass, ray2: DivisorClass):
        if not det2(ray1, ray2):
            raise ValueError("cone rays must be non-proportional")
        self._init(ray1, ray2)


def cone_contains(cone: Cone2, D: DivisorClass) -> bool:
    """Exact membership in the closed cone (boundary counts as inside)."""
    return min(coord_signs(cone.ray1, cone.ray2, D)) >= 0


class InvalidModel(ValueError):
    """Model data that violate an invariant; args holds one message per issue."""

    def __str__(self):
        return "; ".join(self.args)


class CYModel(_Value):
    """Intersection data plus the lattice action of the birational group.

    The nef cone is spanned by the basis classes nef1 = H1 and nef2 = H2;
    tau1 fixes nef1, tau2 fixes nef2.  A model is given both involutions or
    sigma alone (tau1 = tau2 = None), and sigma is set once, to tau2.tau1 or
    to the sigma passed.  Construction then runs validate_model and raises
    InvalidModel on any issue, so every CYModel satisfies its invariants.
    """

    __slots__ = ("name", "triform", "c2form", "tau1", "tau2", "sigma")
    nef1 = DivisorClass(QuadNum(1), QuadNum(0))
    nef2 = DivisorClass(QuadNum(0), QuadNum(1))

    def __init__(
        self,
        name: str,
        triform: TriForm,
        c2form: C2Form,
        tau1: LatticeMap | None,
        tau2: LatticeMap | None,
        sigma: LatticeMap | None = None,
    ):
        if (tau1 is None) != (tau2 is None):
            raise InvalidModel("tau1 and tau2 must be given together")
        if tau1 is not None:
            if sigma is not None:
                raise InvalidModel("give either tau1/tau2 or sigma, not both")
            sigma = tau2 @ tau1
        elif sigma is None:
            raise InvalidModel("model defines neither involutions nor sigma")
        self._init(name, triform, c2form, tau1, tau2, sigma)
        issues = validate_model(self)
        if issues:
            raise InvalidModel(*issues)

    @property
    def has_involutions(self) -> bool:
        return self.tau1 is not None

    def nef_cone(self) -> Cone2:
        return Cone2(self.nef1, self.nef2)

    def chi(self, p: int, q: int) -> Fraction:
        """Riemann-Roch chi(p*H1 + q*H2) = D^3/6 + c2.D/12, exactly."""
        return Fraction(2 * self.triform.cube(p, q) + self.c2form.pair(p, q), 12)


class SigmaData(_Value):
    """Exact eigen-analysis of the infinite-order isometry.

    ray1 is the expanding eigenray (eigenvalue > 1), ray2 the contracting
    one; both are oriented so that every nef class has non-negative
    coordinates in the (ray1, ray2) basis.  dual = (w1, w2) is the dual
    basis, wi . rayj = [i == j], so the eigen-coordinates of D are wi . D.
    """

    __slots__ = ("eigenvalue", "eigenvalue_inv", "ray1", "ray2", "d", "dual")

    def __init__(
        self,
        eigenvalue: QuadNum,
        eigenvalue_inv: QuadNum,
        ray1: DivisorClass,
        ray2: DivisorClass,
        d: int,
        dual: tuple[DivisorClass, DivisorClass],
    ):
        self._init(eigenvalue, eigenvalue_inv, ray1, ray2, d, dual)


def _same_open_cone(u, su, w, sw) -> bool:
    """Whether the integer pair w lies in the open eigen-cone of sigma that
    holds u, given su = sigma u and sw = sigma w.  In eigen-coordinates
    det2(x, sigma x) = c*a1*a2 and det2(w, sigma u) + det2(u, sigma w) =
    c*(a1*b2 + a2*b1) for one constant c, so both carry the sign of
    det2(u, sigma u) exactly when w's coordinates have the signs of u's."""
    o = _sign(det2(u, su))
    return min(o * det2(w, sw), o * (det2(w, su) + det2(u, sw))) > 0


def validate_model(model: CYModel) -> list[str]:
    """Check every model invariant; returns a list of violations (empty = ok).
    CYModel runs it at construction, so it returns [] for any built model.

    A determinant -1 map fixing H1 is [[1, b], [0, -1]] and one fixing H2 is
    [[-1, 0], [c, 1]]; both square to the identity.  sigma needs determinant
    1 and trace > 2 for an expanding eigenvalue > 1; then both nef generators
    must lie in the open movable cone of sigma, the eigen-cone that holds
    nef1 + nef2.  H1 and H2 are nef, so by Kleiman's criterion the four
    products H1^i.H2^(3-i) are >= 0, and D^3 > 0 on the open nef cone holds
    exactly when one of them is > 0.
    """
    issues: list[str] = []
    if model.has_involutions:
        pairs = (("tau1", model.tau1, model.nef1), ("tau2", model.tau2, model.nef2))
        for label, t, g in pairs:
            if t.det() != -1:
                issues.append(f"{label}: determinant must be -1, got {t.det()}")
            if t.apply(g) != g:
                issues.append(f"{label}: does not fix its nef boundary ray")
    sig, tr = model.sigma, model.sigma.trace()
    if sig.det() != 1:
        issues.append(f"sigma: determinant must be +1, got {sig.det()}")
    if abs(tr) <= 2:
        issues.append(f"sigma: |trace| = {abs(tr)} <= 2, no eigenvalue > 1 (finite order or parabolic)")
    elif tr < 0:
        issues.append("sigma: trace must be positive, negative eigenvalues do not preserve the cone")
    elif sig.det() == 1:
        u = (1, 1)
        for label, w in (("nef1", (1, 0)), ("nef2", (0, 1))):
            if not _same_open_cone(u, sig.apply_pair(u), w, sig.apply_pair(w)):
                issues.append(f"{label}: nef generator lies outside the open movable cone of sigma")

    t = model.triform.as_tuple()
    if not (min(t) >= 0 and max(t) > 0):
        issues.append(f"triple form: H1^3, H1^2.H2, H1.H2^2, H2^3 = {t} must be >= 0 and not all 0")
    for label, c2 in (("nef1", model.c2form.h1), ("nef2", model.c2form.h2)):
        if c2 < 0:
            issues.append(f"c2 form: negative against nef generator {label}")
    # chi's third differences are the integers t_ijk, so a + b <= 2 decides Z^2
    for a in range(3):
        for b in range(3 - a):
            chi = model.chi(a, b)
            if chi.denominator != 1:
                issues.append(f"chi integrality fails at {a}*nef1 + {b}*nef2 (chi = {chi})")
    return issues


def eigen_sigma(model: CYModel) -> SigmaData:
    """Exact eigenvalue and eigenrays of sigma over Q(sqrt(d)).

    Each eigenray keeps the shape ((ev - sigma.d) / sigma.c, 1) from the
    second row of sigma - ev; either ray is sign-flipped if needed so the
    ample test class nef1 + nef2 has positive coordinates in the eigenbasis
    (the movable cone is then exactly the non-negative span of the two rays).
    Both rays are irrational, so the rational class lies on neither.  The
    model is valid by construction, so sigma has determinant 1 and trace > 2.
    """
    sig = model.sigma
    tr = sig.trace()
    # d > 1: tr^2 - 4 = n^2 needs (tr - n)(tr + n) = 4, which forces tr = 2,
    # so for tr > 2 the eigenvalues and eigenrays are irrational
    k, d = squarefree_decompose(tr * tr - 4)
    lam = QuadNum(Fraction(tr, 2), Fraction(k, 2), d)
    lam_inv = lam.conjugate()
    # (ev - sigma.d) / sigma.c with ev = (tr +- k*sqrt(d)) / 2; c != 0, as
    # c == 0 and det == 1 would force trace +-2
    p0 = Fraction(tr - 2 * sig.d, 2 * sig.c)
    r1 = DivisorClass(QuadNum(p0, Fraction(k, 2 * sig.c), d), QuadNum(1))
    r2 = DivisorClass(QuadNum(p0, Fraction(-k, 2 * sig.c), d), QuadNum(1))
    s1, s2 = coord_signs(r1, r2, model.nef1 + model.nef2)
    r1, r2 = -r1 if s1 < 0 else r1, -r2 if s2 < 0 else r2
    inv = det2(r1, r2).inverse()
    dual = (DivisorClass(r2.q * inv, -r2.p * inv), DivisorClass(-r1.q * inv, r1.p * inv))
    return SigmaData(lam, lam_inv, r1, r2, d, dual)


def eigen_coords(D: DivisorClass, s: SigmaData) -> tuple[QuadNum, QuadNum]:
    """Coordinates (a1, a2) of D in the eigenray basis, the dot products of
    the dual basis with D; a rational D takes rational dot products of the
    rational and sqrt(d) parts of each wi."""
    pq = _rational_pair(D)
    if pq is None:
        return tuple(w.p * D.p + w.q * D.q for w in s.dual)
    p, q = pq
    return tuple(QuadNum(w.p.a * p + w.q.a * q, w.p.b * p + w.q.b * q, s.d) for w in s.dual)


def area_coordinate(D: DivisorClass, s: SigmaData) -> QuadNum:
    """Product a1*a2 of the eigen-coordinates; invariant under sigma."""
    a1, a2 = eigen_coords(D, s)
    return a1 * a2


def slope_coordinate(D: DivisorClass, s: SigmaData) -> QuadNum:
    """Ratio a1/a2 of the eigen-coordinates; scales by eigenvalue^2 under sigma."""
    a1, a2 = eigen_coords(D, s)
    if not a2:
        raise ZeroDivisionError("slope coordinate undefined on the expanding eigenray")
    return a1 / a2


def in_open_movable(D: DivisorClass, s: SigmaData) -> bool:
    return coord_signs(s.ray1, s.ray2, D) == (1, 1)


def fundamental_domain(model: CYModel, x: DivisorClass) -> Cone2:
    """Rational polyhedral fundamental domain containing the nef cone, with
    its rays in increasing slope a1/a2 and primitive.

    With involutions it is the nef cone (H1, H2): tau2 maps it onto its
    mirror across H2, and sigma H1 = tau2 tau1 H1 = tau2 H1, so the two span
    one sigma window.  Without involutions it is (H1, sigma H1) when H2 lies
    above H1 in slope, (sigma^-1 H1, H1) when below; sigma is unimodular, so
    these rays are primitive.  Both need the nef cone inside the movable
    cone, which every model satisfies by construction, and then the window
    holds H2.  Take o > 0: if sigma H1 = (a, c) lay strictly inside the
    quadrant, sigma H2 = (b, d) would lie past H2, so a, c > 0 > b.  Then ad = 1 + bc <= 0 puts sigma H2 in the closed
    third quadrant, and no pointed movable cone holding H1 and H2 holds it.
    o < 0 is the same argument with sigma^-1.
    """
    if not (x.is_integral and min(x.integer_coords()) > 0):
        raise ValueError("x must be an integral class interior to the nef cone (ample)")
    sig = model.sigma
    if model.has_involutions:
        return model.nef_cone()
    # o = sign det2(H1, sigma H1) = sign c, and o > 0 says H2 lies above H1
    if sig.c > 0:
        return Cone2(model.nef1, sig.apply(model.nef1))
    return Cone2(sig.inverse().apply(model.nef1), model.nef1)


class Dynamics(_Value):
    """A validated model with its eigen-analysis and fundamental domain."""

    __slots__ = ("model", "sigma", "pi")

    def __init__(self, model: CYModel, sigma: SigmaData, pi: Cone2):
        self._init(model, sigma, pi)


def prepare(model: CYModel) -> Dynamics:
    """The eigen-analysis and the fundamental domain on the ample class
    nef1 + nef2 of a model, which is valid by construction."""
    return Dynamics(model, eigen_sigma(model), fundamental_domain(model, model.nef1 + model.nef2))


def reduce_to_domain(
    model: CYModel, s: SigmaData, pi: Cone2, D: DivisorClass
) -> tuple[list[str], DivisorClass]:
    """Pull an integral class of the open movable cone into the domain.

    Returns (word, reduced) with the word over {sigma, sigma_inv, tau2},
    applied left to right to transform D into the reduced class.  Classes
    already in the closed domain take the empty word (first match in pi
    wins); classes in its tau2 mirror cross back with one involution.
    Otherwise D steps by sigma or sigma_inv, one letter a step, until its
    slope lies in [lo, hi) for lo = pi.ray1 and hi = sigma lo, then crosses
    tau2 at most once.  hi must be the window's top: pi.ray2, or tau2 pi.ray1
    with the mirror.  Every test is an integer det2 sign.
    """
    if not D.is_integral:
        raise ValueError("only integral classes are reduced")
    if not in_open_movable(D, s):
        raise ValueError(f"{D} is not in the open movable cone; reduction undefined")

    sig = model.sigma
    v, sv = D.integer_coords(), sig.apply_pair(D.integer_coords())
    o = _sign(det2(v, sv))  # o * det2(u, w) > 0 says slope(u) < slope(w)
    lo, top = pi.ray1.integer_coords(), pi.ray2.integer_coords()
    pieces = [(lo, top)]
    if model.has_involutions:
        pieces.append((model.tau2.apply_pair(lo), model.tau2.apply_pair(top)))
        top = pieces[1][0]
    hi = sig.apply_pair(lo)
    # the stepping ends only if lo lies in D's open cone
    if det2(hi, top) or not _same_open_cone(v, sv, lo, hi):
        raise ValueError("domain pieces do not tile a full sigma window")

    def inside(piece, w) -> bool:
        return min(coord_signs(*piece, w)) >= 0

    word: list[str] = []
    if not any(inside(piece, v) for piece in pieces):
        while o * det2(lo, v) < 0:
            v = sig.apply_pair(v)
            word.append(SIGMA)
        sig_inv = sig.inverse()
        while o * det2(hi, v) >= 0:
            v = sig_inv.apply_pair(v)
            word.append(SIGMA_INV)
    if model.has_involutions and not inside(pieces[0], v) and inside(pieces[1], v):
        v = model.tau2.apply_pair(v)
        word.append(TAU2)
    if inside(pieces[0], v):
        return word, DivisorClass.from_ints(*v)
    raise ValueError("reduction landed outside the fundamental window; model data inconsistent")

"""Bigraded Hilbert functions of explicit ideals by exact rank computation.

Graded pieces of R/I are measured as (#monomials) - rank of the relation
matrix.  Linear generators are substituted away first (R/I = R'/I' with
fewer variables), once per ideal.  Each column is a monomial whose exponent
vectors are packed into one integer per kind, in base a+1 (x) or b+1 (y): a
degree-a exponent is at most a, so a generator term's key plus a
multiplier's key is the product's key, with no carries.  The relation matrix
is more than 99% zeros, so a row m*f is a pair (xs, y) of shared parts beside
the coefficients that all rows of f share: xs, the x part of its columns, is
shared by the rows whose multiplier has m's x part, y likewise, and its
columns are map(add, xs, y), leading monomial first.  The elimination
follows the row order of F4's linear algebra (Faugere-Lachartre): signature
order (below), which is shortest first, each row reduced against pivot rows
keyed by their highest column, which keeps them sparse.  A pivot row is kept
as built, beside the inverse of its leading entry, so a row that meets no
pivot, as most do, becomes one with no dict, no reduction and no columns.

One monomial order numbers the columns, picks the pivots and gives the
leading monomials below: grevlex within each kind (x0 > x1 > ..., likewise
y), the x block before the y block, so the highest column of a row is its
leading monomial.  It takes about half the reduction steps of columns in
combinations_with_replacement order with the criterion keyed on the
lex-largest term.

Rows are dropped before the elimination by Faugere's F5 criteria (ISSAC
2002; Eder and Faugere, J. Symbolic Comput. 80, 2017).  The substituted
ideal keeps its generators fewest terms first, and the row m*f_j has the
signature (j, m): j is the position of f_j there, which a bidegree that
leaves generators out does not change, and signatures are ordered by j,
then by m in the column order.  hilbert_dim builds the rows in signature
order, and _rank_mod eliminates them in it; each generator's rows have its
term count, so that order is shortest first.  No row keeps its signature:
the highest column of a zero row is LM(f_j)*m, so m is read off it.
The row m*f_j is dropped when m is divisible by the leading monomial
LM(f_i) of an earlier generator (a Koszul syzygy) or by a syzygy multiplier
of f_j learned on the same ideal, read from the signature of a row that
reduced to zero.  The span over Q does not change.  For m = LM(f_i)*t and c
the leading coefficient of f_i, c*m*f_j = t*f_j*f_i - t*tail(f_i)*f_j, rows
of smaller signature.  A row m*f_j that reduced to zero lies in the span of
the rows of smaller signature; the order is multiplicative, so t*m*f_j lies
in the span of the rows of smaller signature at every larger bidegree.  By
induction on the signature, that span is the span of the kept rows, and
dropping rows never changes it.  So which rows reduce to zero, and the
signatures learned from them, belong to the ideal, not to the order of the
calls.  The learned multipliers (IdealSpec.syzygy_signatures of the
substituted ideal) are kept minimal, an antichain under divisibility per
generator: over bidegrees 1..4 example41 learns 8 and oguiso 1 in any call
order, and afterwards no row of those pieces reduces to zero.  example41's
(4, 4) ranks 1,906 rows of rank 1,906 once that grid is ranked, 2,347 on a
fresh ideal and 3,475 with no row dropped.  The 32 ranks of both bundled
ideals at bidegrees 1..4, in increasing order on fresh ideals, take 3,021
reduction steps, against 11,800 with the Koszul syzygies alone.

Every dimension is exact over Q, and so is every learned signature.  Each
piece is eliminated once modulo _PRIME, and for the kept rows K and any
prime p, rank_p(K) <= rank_Q(K) <= min(|K|, #columns).  So the pivot count
is the rank over Q when no row reduced to zero, or when the pivots fill
every column: that piece has dimension 0 and learns nothing, as a row that
is zero mod p need not be zero over Q.  Any other piece is eliminated again
over the integers in the same signature order (_rank_exact), and only the
rows that are zero there are learned.  A total alone would not do: rows
(1, 1), (0, p), (0, 1) have rank 2 over Q and mod p, yet (0, p) is not in
the span of (1, 1).

An exact linear fit then inverts the Euler-characteristic cubic to recover
triple intersection numbers and c2-degrees.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, combinations_with_replacement, product
from math import comb, gcd
from operator import add
from pathlib import Path

from .cones import C2Form, TriForm, _Value

DEFAULT_DEGREE_CAP = 6
# Largest graded piece hilbert_dim ranks, in monomials of the input ring;
# example41 at (6, 6) has 38,808.
MAX_PIECE_MONOMIALS = 200_000
# Most variables of one kind an ideal file may declare: the column keys pack
# n exponents per kind, so ranking a degree-1 piece costs O(n^2) bits.
MAX_RING_VARIABLES = 1_000

# The modulus of every first elimination; below 2^30, a residue is one CPython digit
_PRIME = 1073741789


class PolyParseError(ValueError):
    """Syntax or grading error in the generator grammar, with position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FitInconsistency(ValueError):
    """Hilbert samples do not lie on a single Euler cubic."""


class BiPolyRing(_Value):
    """Polynomial ring with x-variables of bidegree (1,0), y-variables (0,1)."""

    __slots__ = ("x_count", "y_count")

    def __init__(self, x_count: int, y_count: int):
        if x_count < 1 or y_count < 1:
            raise ValueError("variable counts must be at least 1")
        super().__init__(x_count, y_count)


class BiPoly(_Value):
    """Bihomogeneous polynomial: map (x-exponents, y-exponents) -> coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: BiPolyRing, terms: tuple):
        terms = tuple(sorted(terms))
        degs = {(sum(xe), sum(ye)) for (xe, ye), _ in terms}
        if len(degs) > 1:
            raise ValueError(f"not bihomogeneous: bidegrees {sorted(degs)}")
        if any(not c for _, c in terms):
            raise ValueError("zero coefficients must not be stored")
        super().__init__(ring, terms)

    @classmethod
    def from_dict(cls, ring: BiPolyRing, d: dict) -> BiPoly:
        return cls(ring, tuple((k, v) for k, v in d.items() if v))

    @property
    def bidegree(self):
        if not self.terms:
            return None
        (xe, ye), _ = self.terms[0]
        return (sum(xe), sum(ye))

    def is_zero(self) -> bool:
        return not self.terms


class IdealSpec(_Value):
    __slots__ = ("ring", "generators", "__dict__")  # __dict__ holds the cached property

    def __init__(self, ring: BiPolyRing, generators: tuple[BiPoly, ...]):
        for g in generators:
            if g.ring != ring:
                raise ValueError("generator ring mismatch")
            if g.is_zero():
                raise ValueError("zero generator")
        super().__init__(ring, generators)

    @cached_property
    def substituted(self) -> IdealSpec:
        """The same quotient ring with the linear generators substituted away
        (see _substitute_linear), computed once per ideal."""
        return _substitute_linear(self)

    @cached_property
    def syzygy_signatures(self) -> dict[int, list]:
        """The syzygy signatures hilbert_dim has learned on this ideal: the
        position of a generator in this ideal maps to an antichain of
        multipliers (x exponents, y exponents) under divisibility."""
        return {}


# A term is its sign (optional on the first) and the run up to the next sign;
# a factor is the run after the term's start or a '*'.
_TERM_RE = re.compile(r"(\A\s*[+-]?|[+-])\s*([^+-]*)")
_FACTOR_SPAN_RE = re.compile(r"(?:\A|\*)\s*([^*]*)")
_FACTOR_RE = re.compile(r"^([xy])(\d+)(?:\^(\d+))?$")


def parse_poly(text: str, ring: BiPolyRing) -> BiPoly:
    """Parse terms joined by +/-; a term is an optional integer coefficient
    and '*'-separated powers like "x2^3" or "y0".  A PolyParseError's
    position is where the offending term or factor starts in text."""
    if not text.strip():
        raise PolyParseError("empty polynomial", 0)
    terms: dict = {}
    first_bid = None
    for term in _TERM_RE.finditer(text):
        sign, body, start = term[1].lstrip(), term[2].rstrip(), term.start(2)
        if sign == "+" and not term.start():
            raise PolyParseError("leading '+' not allowed", term.end(1) - 1)
        if not body:
            raise PolyParseError("empty term", start)
        coeff = -1 if sign == "-" else 1
        xe = [0] * ring.x_count
        ye = [0] * ring.y_count
        for span in _FACTOR_SPAN_RE.finditer(body):
            factor, fpos = span[1].rstrip(), start + span.start(1)
            if not factor:
                raise PolyParseError("empty factor", fpos)
            if factor.isdecimal():
                if span.start():
                    raise PolyParseError("integer coefficient must come first", fpos)
                coeff *= int(factor)
                continue
            m = _FACTOR_RE.match(factor)
            if not m:
                raise PolyParseError(f"cannot parse factor {factor!r}", fpos)
            kind, idx, power = m[1], int(m[2]), int(m[3] or 1)
            exps = xe if kind == "x" else ye
            if idx >= len(exps):
                raise PolyParseError(f"unknown variable {kind}{idx}", fpos)
            exps[idx] += power
        bid = (sum(xe), sum(ye))
        first_bid = first_bid or bid
        if bid != first_bid:
            raise PolyParseError(f"mixed bidegrees {first_bid} and {bid}", start)
        key = (tuple(xe), tuple(ye))
        terms[key] = terms.get(key, 0) + coeff
    return BiPoly.from_dict(ring, terms)


_RING_RE = re.compile(r"^ring\s+x=(\d+)\s+y=(\d+)\s*$")


def parse_ideal_text(text: str) -> IdealSpec:
    """Ideal file: header "ring x=<n> y=<m>", then one generator per line.
    Blank lines and '#' comment lines are skipped.  A header with n*m above
    MAX_PIECE_MONOMIALS is refused before any generator is parsed: no piece
    of bidegree (a, b) with a, b >= 1 could be ranked over that ring.  So is
    one with n or m above MAX_RING_VARIABLES, whose degree-1 column keys and
    term exponent tuples would grow with the variable count."""
    ring = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if ring is not None:
                gens.append(parse_poly(raw, ring))
                if gens[-1].is_zero():
                    raise ValueError("zero generator")
            elif not (m := _RING_RE.match(line)):
                raise ValueError("expected header 'ring x=<n> y=<m>'")
            else:
                # int() refuses a count past the interpreter's digit limit
                ring = BiPolyRing(int(m.group(1)), int(m.group(2)))
                header = f"ring x={ring.x_count} y={ring.y_count}"
                size = ring.x_count * ring.y_count
                if size > MAX_PIECE_MONOMIALS:
                    raise ValueError(f"{header} has {size} monomials of bidegree (1, 1), more than {MAX_PIECE_MONOMIALS}")
                if max(ring.x_count, ring.y_count) > MAX_RING_VARIABLES:
                    raise ValueError(f"{header} has more than {MAX_RING_VARIABLES} variables of one kind")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if ring is None:
        raise ValueError("missing ring header")
    return IdealSpec(ring, tuple(gens))


def load_ideal_file(path) -> IdealSpec:
    return parse_ideal_text(Path(path).read_text())


def merge_ideals(*ideals: IdealSpec) -> IdealSpec:
    rings = {i.ring for i in ideals}
    if len(rings) != 1:
        raise ValueError(f"cannot merge ideals over different rings: {rings}")
    gens = tuple(g for i in ideals for g in i.generators)
    return IdealSpec(rings.pop(), gens)


@lru_cache(maxsize=None)
def _monomials(nvars: int, deg: int, base: int) -> tuple[int, ...]:
    """Degree-deg exponent vectors e over nvars variables, each packed as
    sum e_i base^i, in ascending grevlex order with x0 > x1 > ...: the
    column order of hilbert_dim.  At a fixed degree grevlex is the reverse
    of the keys' numeric order, since the top digit is the last exponent."""
    powers = [base**i for i in range(nvars)]
    keys = (sum(powers[i] for i in combo) for combo in combinations_with_replacement(range(nvars), deg))
    return tuple(sorted(keys, reverse=True))


def _pack(exponents: tuple[int, ...], base: int) -> int:
    key = 0
    for e in reversed(exponents):
        key = key * base + e
    return key


def _unpack(key: int, nvars: int, base: int) -> tuple[int, ...]:
    return tuple(key // base**i % base for i in range(nvars))


def _divisors(e: tuple[int, ...], d: int) -> list[tuple[int, ...]]:
    """The exponent vectors of degree d that divide e."""
    return [f for f in product(*(range(k + 1) for k in e)) if sum(f) == d] if sum(e) >= d else []


def _rank_mod(groups: list[tuple], p: int, zeros: list[int] | None = None) -> int:
    """Rank of sparse integer rows modulo a prime p.  Rows come in groups
    (coefficients, [(xs, y), ...]), taken in order: a row's columns are
    map(add, xs, y), highest first, and pair with its group's coefficients.
    Each row is reduced against pivot rows keyed by their highest column,
    kept as built beside the inverse of their leading entry, which a group
    computes at most once.  A row whose highest column xs[0] + y[0] has no
    pivot yet becomes one as built, its columns formed only when a row is
    reduced against it; only a row that meets a pivot, or a row of a group
    with a coefficient that is 0 mod p, is reduced as a dict {column:
    coefficient}.  The index of each row that reduces to zero, over all
    groups, is appended to zeros."""
    pivots: dict[int, tuple] = {}  # column -> (xs, y or None if xs are the columns, coefficients, leading inverse)
    i = -1
    for coeffs, rows in groups:
        coeffs = [v % p for v in coeffs]
        as_built = coeffs and all(coeffs)
        inv = None
        for xs, y in rows:
            i += 1
            if as_built and (lead := xs[0] + y[0]) not in pivots:
                inv = inv or pow(coeffs[0], -1, p)
                pivots[lead] = xs, y, coeffs, inv
                continue
            row = {c: v for c, v in zip(map(add, xs, y), coeffs) if v}
            while row:
                c = max(row)
                if (pivot := pivots.get(c)) is None:
                    pivots[c] = row.keys(), None, row.values(), pow(row[c], -1, p)
                    break
                pxs, py, pcoeffs, pinv = pivot
                f = row[c] * pinv % p
                for k, v in zip(pxs if py is None else map(add, pxs, py), pcoeffs):
                    if w := (row.get(k, 0) - f * v) % p:
                        row[k] = w
                    else:
                        del row[k]
            else:
                if zeros is not None:
                    zeros.append(i)
    return len(pivots)


def _rank_exact(groups: list[tuple], zeros: list[int]) -> int:
    """Rank over Q of _rank_mod's rows, taken in the same order, and their
    zero rows, appended to zeros: fraction-free over the integers, each
    reduction step cross-multiplies by the two leading entries over their
    gcd, and each new pivot is divided by its content."""
    pivots: dict[int, dict] = {}  # column -> primitive row with its highest entry there
    for i, row in enumerate(dict(zip(map(add, xs, y), coeffs)) for coeffs, rows in groups for xs, y in rows):
        while row:
            c = max(row)
            if (pivot := pivots.get(c)) is None:
                d = gcd(*row.values())
                pivots[c] = {k: v // d for k, v in row.items()}
                break
            g = gcd(pivot[c], row[c])
            u, f = pivot[c] // g, row[c] // g
            if u != 1:
                row = {k: u * v for k, v in row.items()}
            for k, v in pivot.items():
                if w := row.get(k, 0) - f * v:
                    row[k] = w
                else:
                    del row[k]
        else:
            zeros.append(i)
    return len(pivots)


def _piece_refusal(ring: BiPolyRing, bidegree: tuple[int, int]) -> str | None:
    """Why hilbert_dim refuses the bidegree (a, b) piece over ring, or None.
    A refused (a, b) with a, b >= 0 has every piece (a', b') with a' >= a
    and b' >= b refused as well."""
    a, b = bidegree
    if a < 0 or b < 0:
        return f"bidegree must be non-negative, got {bidegree}"
    if a > DEFAULT_DEGREE_CAP or b > DEFAULT_DEGREE_CAP:
        return f"bidegree {bidegree} exceeds the cap {DEFAULT_DEGREE_CAP}"
    size = comb(ring.x_count + a - 1, a) * comb(ring.y_count + b - 1, b)
    if size > MAX_PIECE_MONOMIALS:
        return f"the bidegree {bidegree} piece has {size} monomials, more than {MAX_PIECE_MONOMIALS}"
    return None


def _substitute_linear(ideal: IdealSpec) -> IdealSpec:
    """R/I as R'/I' over fewer variables.  A generator whose own bidegree
    hilbert_dim refuses is dropped first: its rows lie only in refused
    pieces.  A (1,0) or (0,1) generator sum c_j v_j with c_p != 0 at its last
    live variable p eliminates v_p: each generator that holds v_p maps under
    v_p -> -sum_{j != p} c_j v_j, v_j -> c_p v_j (c_p^deg times eliminating
    v_p, in integers), divided by its content; each term is expanded one
    factor at a time.  That map only scales a generator free of v_p, so it
    stays as it is.  Exponent tuples keep their length until the eliminated
    variables leave the ring, all at once at the end.  A kind down to one
    variable keeps its linear generator: a ring needs one of each kind.  The
    generators come back fewest terms first."""
    gens = [g for g in ideal.generators if _piece_refusal(ideal.ring, g.bidegree) is None]
    live = [list(range(ideal.ring.x_count)), list(range(ideal.ring.y_count))]
    while linear := next(((k, g) for g in gens for k in (0, 1)
                          if g.bidegree == ((1, 0), (0, 1))[k] and len(live[k]) > 1), None):
        kind, g = linear
        coeffs = {mono[kind].index(1): c for mono, c in g.terms}
        p = max(coeffs)
        cp = coeffs.pop(p)
        live[kind].remove(p)
        for n, h in enumerate(gens):
            if any(mono[kind][p] for mono, _ in h.terms):
                total: dict = {}
                for mono, c in h.terms:
                    e = mono[kind]
                    part = {e[:p] + (0,) + e[p + 1:]: c * cp ** (sum(e) - e[p])}
                    for _ in range(e[p]):
                        step: dict = {}
                        for exps, v in part.items():
                            for i, ci in coeffs.items():
                                key = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
                                step[key] = step.get(key, 0) - v * ci
                        part = step
                    for exps, v in part.items():
                        key = (exps, mono[1]) if kind == 0 else (mono[0], exps)
                        total[key] = total.get(key, 0) + v
                d = gcd(*total.values())
                gens[n] = BiPoly.from_dict(ideal.ring, {m: v // d for m, v in total.items()}) if d else None
        gens = [h for h in gens if h is not None]
    ring = BiPolyRing(len(live[0]), len(live[1]))
    return IdealSpec(ring, tuple(BiPoly(ring, tuple(((tuple(xe[i] for i in live[0]), tuple(ye[j] for j in live[1])), c)
                                                    for (xe, ye), c in g.terms))
                                 for g in sorted(gens, key=lambda g: len(g.terms))))


def hilbert_dim(ideal: IdealSpec, bidegree: tuple[int, int]) -> int:
    """Dimension of the degree-(a, b) piece of ring/ideal."""
    refusal = _piece_refusal(ideal.ring, bidegree)
    if refusal:
        raise ValueError(refusal)
    a, b = bidegree
    ideal = ideal.substituted
    ring = ideal.ring
    xm, ym = _monomials(ring.x_count, a, a + 1), _monomials(ring.y_count, b, b + 1)
    xi, yi = {e: i for i, e in enumerate(xm)}, {e: i for i, e in enumerate(ym)}
    ny, ncols = len(ym), len(xm) * len(ym)

    groups, sigs = [], []  # per generator f_j, its kept rows m*f_j as pairs (xs, y) and (j, x key, y key of LM(f_j))
    leads = []  # the leading monomial of each earlier generator
    learned = ideal.syzygy_signatures
    for j, g in enumerate(ideal.generators):
        ga, gb = g.bidegree
        if ga > a or gb > b:
            continue
        gx = [_pack(xe, a + 1) for (xe, _), _ in g.terms]
        gy = [_pack(ye, b + 1) for (_, ye), _ in g.terms]
        # LM(g) is g's term in the highest column of every row m*g: the
        # smallest x key, then the smallest y key; it goes first
        gx, gy, terms = zip(*sorted(zip(gx, gy, g.terms)))
        # skip[x key] = y keys of the multipliers s*t of g, for s the leading
        # monomial of an earlier generator or a learned syzygy multiplier of
        # g: those rows lie in the span of the kept rows
        skip: dict[int, set[int]] = {}
        for xe, ye in leads + learned.get(j, []):
            la, lb = sum(xe), sum(ye)
            if la <= a - ga and lb <= b - gb:
                lx, ly = _pack(xe, a + 1), _pack(ye, b + 1)
                tys = [ly + t for t in _monomials(ring.y_count, b - gb - lb, b + 1)]
                for t in _monomials(ring.x_count, a - ga - la, a + 1):
                    skip.setdefault(lx + t, set()).update(tys)
        leads.append(terms[0][0])
        rows: list[tuple] = []
        groups.append((tuple(c for _, c in terms), rows))
        sigs.append((j, gx[0], gy[0]))
        ys = [(yq, [yi[k + yq] for k in gy]) for yq in _monomials(ring.y_count, b - gb, b + 1)]
        for xq in _monomials(ring.x_count, a - ga, a + 1):
            xs = [xi[k + xq] * ny for k in gx]
            skipped = skip.get(xq, ())
            rows += [(xs, y) for yq, y in ys if yq not in skipped]
    zeros: list[int] = []
    rank = _rank_mod(groups, _PRIME, zeros)
    if zeros:  # maybe not zero over Q: rank over Z unless the pivots fill every column
        zeros.clear()
        rank = _rank_exact(groups, zeros) if rank < ncols else rank
    # the packing has no carries, so a zero row's highest column xs[0] + y[0]
    # is LM(f_j)*m: m's keys are that column's x and y keys less LM(f_j)'s
    starts = list(accumulate((len(rows) for _, rows in groups), initial=0))
    found: dict[int, dict] = {}
    for i in zeros:
        (j, lx, ly), (xs, y) = sigs[k := bisect_right(starts, i) - 1], groups[k][1][i - starts[k]]
        found.setdefault(j, {})[_unpack(xm[xs[0] // ny] - lx, ring.x_count, a + 1),
                                _unpack(ym[y[0]] - ly, ring.y_count, b + 1)] = None
    # the multipliers found for f_j share one degree (dx, dy), and none is a
    # multiple of a learned one; drop the learned ones they divide
    for j, ms in found.items():
        dx, dy = map(sum, next(iter(ms)))
        learned[j] = [s for s in learned.get(j, ()) if not any(
            (u, v) in ms for u in _divisors(s[0], dx) for v in _divisors(s[1], dy))] + list(ms)
    return ncols - rank


def default_sample_grid(max_degree: int = 3) -> list[tuple[int, int]]:
    """Fit sample bidegrees: 1 <= a, b <= max_degree (so a + b >= 2).  fit_chi
    needs six samples, so max_degree starts at 3."""
    if not 3 <= max_degree <= DEFAULT_DEGREE_CAP:
        raise ValueError(f"max_degree must be between 3 and the cap {DEFAULT_DEGREE_CAP}, got {max_degree}")
    return [(a, b) for a in range(1, max_degree + 1) for b in range(1, max_degree + 1)]


def fit_chi(samples) -> tuple[TriForm, C2Form]:
    """Invert chi(a,b) = (a^3 t1 + 3 a^2 b t2 + 3 a b^2 t3 + b^3 t4)/6
    + (a c5 + b c6)/12 for the six unknowns, exactly.

    The system must be uniquely solvable and every extra sample must be
    reproduced exactly; anything else signals non-stabilized samples and
    raises FitInconsistency.

    The elimination is fraction-free: each row is cross-multiplied by the
    pivot and divided by its content, a nonzero multiple of the rational row.
    """
    samples = list(samples)
    if len(samples) < 6:
        raise ValueError(f"need at least 6 samples, got {len(samples)}")
    mat = [[2 * a**3, 6 * a * a * b, 6 * a * b * b, 2 * b**3, a, b, 12 * dim] for (a, b), dim in samples]

    nrows = len(mat)
    rank = 0
    for c in range(6):
        piv = next((i for i in range(rank, nrows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][c]
        for i in range(nrows):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                row = [pv * u - f * v for u, v in zip(mat[i], mat[rank])]
                d = gcd(*row)
                mat[i] = [v // d for v in row] if d else row
        rank += 1
    if rank < 6:
        raise ValueError("sample bidegrees are degenerate: system underdetermined")
    for i in range(rank, nrows):
        if any(mat[i]):
            raise FitInconsistency(
                "over-determined system inconsistent: Hilbert values at the sampled "
                "bidegrees do not agree with any single Euler cubic (not stabilized)"
            )
    sol = [Fraction(mat[i][6], mat[i][i]) for i in range(6)]
    if any(v.denominator != 1 for v in sol):
        raise FitInconsistency(f"fit produced non-integral intersection data {sol}")
    t1, t2, t3, t4, c5, c6 = (int(v) for v in sol)
    return TriForm(t1, t2, t3, t4), C2Form(c5, c6)

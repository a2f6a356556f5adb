"""The two intersection-data oracles agree on generic Calabi-Yau complete
intersections in P^a x P^b: the Chow ring (`chow.intersection_data`) and the
Hilbert-function fit (`fit_chi` over `default_sample_grid(3)`).

Each generator takes every monomial of its bidegree with a seeded coefficient
in [-5, 5].  Dense draws are what make the members generic; a sparse draw can
be a non-regular sequence whose Hilbert function differs, which is not a bug
in either oracle.
"""

import random
from itertools import product

import pytest

from movcone import BiPoly, BiPolyRing, IdealSpec, default_sample_grid, fit_chi, hilbert_dim
from movcone.chow import CIData, MultiProjAmbient, intersection_data

# (dims, multidegrees): every family's degrees sum to (a + 1, b + 1)
FAMILIES = {
    "P2xP2 (3,3)": ((2, 2), ((3, 3),)),
    "P1xP3 (2,4)": ((1, 3), ((2, 4),)),
    "P3xP3 (1,1),(1,1),(2,2)": ((3, 3), ((1, 1), (1, 1), (2, 2))),
    "P2xP3 (1,1),(2,3)": ((2, 3), ((1, 1), (2, 3))),
    "P2xP3 (0,2),(3,2)": ((2, 3), ((0, 2), (3, 2))),
    "P1xP4 (1,1),(1,4)": ((1, 4), ((1, 1), (1, 4))),
    "P1xP4 (0,2),(2,3)": ((1, 4), ((0, 2), (2, 3))),
}


def _exponents(nvars: int, deg: int):
    return [e for e in product(range(deg + 1), repeat=nvars) if sum(e) == deg]


def _dense_member(rng, dims, degrees) -> IdealSpec:
    ring = BiPolyRing(dims[0] + 1, dims[1] + 1)
    gens = []
    for a, b in degrees:
        monos = product(_exponents(ring.x_count, a), _exponents(ring.y_count, b))
        gens.append(BiPoly.from_dict(ring, {m: rng.randint(-5, 5) for m in monos}))
    return IdealSpec(ring, tuple(gens))


@pytest.mark.parametrize("family", FAMILIES)
def test_chow_and_hilbert_fit_agree_on_generic_members(family):
    dims, degrees = FAMILIES[family]
    chow = intersection_data(CIData(MultiProjAmbient(dims), degrees))
    rng = random.Random(f"oracles {family}")
    for draw in range(4):
        ideal = _dense_member(rng, dims, degrees)
        fit = fit_chi((bd, hilbert_dim(ideal, bd)) for bd in default_sample_grid(3))
        assert fit == chow, (
            f"{family}, draw {draw}: chow gives {chow[0].as_tuple()}/{chow[1].as_tuple()}, "
            f"hilbert fit gives {fit[0].as_tuple()}/{fit[1].as_tuple()}"
        )

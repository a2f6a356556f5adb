"""Seeded inputs and reference answers that do not come from movcone.

Everything here is plain integer arithmetic on the bundled model files' JSON,
intersection numbers confirmed outside the Hilbert code, and CSV digests and
CLI output recorded from the seed commit.  The library under test only ever
receives the inputs generated here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "movcone" / "data"

MODELS = ("example41", "oguiso")

# example41: the README's independently confirmed values for the bundled ideal
# (P^1-bundle geometry, free resolution, exact-rational ranks); oguiso: the
# values both derivations stored in its model file.
FIT_REFERENCE = {
    "example41": ((2, 6, 8, 4), (44, 52)),
    "oguiso": ((2, 6, 6, 2), (44, 44)),
}

GOLDEN = json.loads((BENCH / "golden.json").read_text())["sweep_csv"]

LETTERS = ("sigma", "sigma_inv", "tau1", "tau2")


def _matmul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


class Lattice:
    """Integer lattice data of one bundled model, read from its JSON file."""

    def __init__(self, name: str):
        doc = json.loads((DATA / f"{name}.model").read_text())
        self.name = name
        self.triform = tuple(doc["triform"])
        self.c2form = tuple(doc["c2form"])
        tau1, tau2 = tuple(doc["tau1"]), tuple(doc["tau2"])
        sigma = _matmul(tau2, tau1)
        a, b, c, d = sigma
        self.maps = {
            "tau1": tau1,
            "tau2": tau2,
            "sigma": sigma,
            "sigma_inv": (d, -b, -c, a),
        }

    def apply(self, letter: str, cls: tuple[int, int]) -> tuple[int, int]:
        a, b, c, d = self.maps[letter]
        p, q = cls
        return (a * p + b * q, c * p + d * q)

    def apply_word(self, word, cls: tuple[int, int]) -> tuple[int, int]:
        for letter in word:
            cls = self.apply(letter, cls)
        return cls

    def chi(self, p: int, q: int) -> int:
        """chi = D^3/6 + c2.D/12 from the stored intersection numbers."""
        return chi_from(self.triform, self.c2form, p, q)


def chi_from(triform, c2form, a: int, b: int) -> int:
    t1, t2, t3, t4 = triform
    twelve_chi = 2 * (t1 * a**3 + 3 * t2 * a * a * b + 3 * t3 * a * b * b + t4 * b**3)
    twelve_chi += c2form[0] * a + c2form[1] * b
    if twelve_chi % 12:
        raise ValueError(f"chi({a},{b}) is not integral for {triform}/{c2form}")
    return twelve_chi // 12


@dataclass(frozen=True)
class Query:
    model: str
    base: tuple[int, int]
    cls: tuple[int, int]
    expected: int


def point_queries(rng: random.Random, lattices: dict[str, Lattice], count: int) -> list[Query]:
    """Nef classes base = (p, q), p, q in [1, 50], moved by a random word of
    0-4 letters; the section count is chi(base) because every letter is a
    birational pull-back."""
    out = []
    for _ in range(count):
        lat = lattices[rng.choice(MODELS)]
        base = (rng.randint(1, 50), rng.randint(1, 50))
        word = [rng.choice(LETTERS) for _ in range(rng.randint(0, 4))]
        out.append(Query(lat.name, base, lat.apply_word(word, base), lat.chi(*base)))
    return out


def cli_commands(work: str) -> dict[str, tuple[list[str], list[str] | None]]:
    """CLI arguments and the exact stdout each must print (None: checked by
    the workload).  Paths are relative to the checkout root."""
    ex41 = "src/movcone/data/example41.model"
    chi11 = Lattice("example41").chi(1, 1)
    return {
        "h0": (["h0", ex41, "1,1"], ["word = []", "reduced = 1,1", f"h0 = {chi11}"]),
        "reduce": (["reduce", ex41, "--", "-1,8"], ["word = [tau2]", "reduced = 1,0"]),
        "sweep": (["sweep", ex41, "--out", f"{work}/sweep.csv"], None),
        "verify": (
            ["verify", ex41],
            [
                "PASS model-invariants",
                "lambda = 23 + 4*sqrt(33)",
                "PASS eigen-analysis",
                "PASS fundamental-domain",
                "PASS area-invariance",
                "PASS slope-scaling",
                "PASS wall-crossing-sandwich",
                "PASS section-count-word-invariance",
                "PASS chi-integrality",
                "PASS floor-bracketing",
                "PASS cone-membership",
            ],
        ),
        "derive": (["derive", "src/movcone/data/oguiso.model", "--out", f"{work}/oguiso.model"], None),
    }

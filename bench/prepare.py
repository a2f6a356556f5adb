"""Set-up shared by every workload: import movcone from the checkout's src/,
then load, validate and prepare the bundled models and their ideals.

Run as a script, it does the set-up once in a fresh interpreter and prints
the seconds it took, from just before `import movcone` to the end:

    python3 bench/prepare.py
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from oracle import DATA, MODELS, SRC


class SetupError(RuntimeError):
    """The checkout's movcone could not be imported or a model failed to prepare."""


def import_movcone():
    if not (SRC / "movcone" / "__init__.py").is_file():
        raise SetupError(f"no movcone package under {SRC}; run from a repository checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import movcone

    if SRC.resolve() not in Path(movcone.__file__).resolve().parents:
        raise SetupError(f"imported movcone from {movcone.__file__}, not from {SRC}")


def child_env() -> dict:
    """Environment for a fresh interpreter that imports movcone from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


@dataclass
class Prepared:
    name: str
    model: object  # movcone.CYModel
    s: object  # movcone.SigmaData
    pi: object  # movcone.Cone2
    ideal: object  # movcone.IdealSpec
    ci: object  # movcone.CIData or None


def prepare(tr) -> dict[str, Prepared]:
    import_movcone()
    from movcone import chow, cones, hilbert, models

    out = {}
    for name in MODELS:
        mf = tr.call("models.load_model", models.load_model, DATA / f"{name}.model")
        model = mf.to_cymodel()
        issues = tr.call("cones.validate_model", cones.validate_model, model)
        if issues:
            raise SetupError(f"{name}: {'; '.join(issues)}")
        s = tr.call("cones.eigen_sigma", cones.eigen_sigma, model)
        pi = tr.call("cones.fundamental_domain", cones.fundamental_domain, model, model.nef1 + model.nef2)
        parts = [tr.call("hilbert.load_ideal_file", hilbert.load_ideal_file, p) for p in mf.ideal_paths()]
        ideal = tr.call("hilbert.merge_ideals", hilbert.merge_ideals, *parts)
        ci = None
        if mf.ci is not None:
            ambient = chow.MultiProjAmbient(tuple(mf.ci["dims"]))
            ci = chow.CIData(ambient, tuple(tuple(d) for d in mf.ci["degrees"]))
        out[name] = Prepared(name, model, s, pi, ideal, ci)
    return out


if __name__ == "__main__":
    from tracing import Tracer

    t0 = time.perf_counter()
    prepare(Tracer(False))
    print(repr(time.perf_counter() - t0))

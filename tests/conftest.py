import time
from dataclasses import dataclass

import pytest

from movcone import (
    TriForm,
    C2Form,
    default_sample_grid,
    fit_chi,
    hilbert_dim,
    load_ideal_file,
    load_model,
    merge_ideals,
)
from movcone.cones import Dynamics, prepare
from movcone.models import bundled_model_path


def _dynamics(name: str) -> Dynamics:
    return prepare(load_model(bundled_model_path(name)).to_cymodel())


@pytest.fixture(scope="session")
def ex41() -> Dynamics:
    return _dynamics("example41")


@pytest.fixture(scope="session")
def oguiso() -> Dynamics:
    return _dynamics("oguiso")


@pytest.fixture(scope="session")
def synthetic() -> Dynamics:
    return _dynamics("synthetic-bminus-empty")


@pytest.fixture(scope="session")
def ex41_ideal():
    mf = load_model(bundled_model_path("example41"))
    return merge_ideals(*(load_ideal_file(p) for p in mf.ideal_paths()))


@pytest.fixture(scope="session")
def oguiso_ideal():
    mf = load_model(bundled_model_path("oguiso"))
    return merge_ideals(*(load_ideal_file(p) for p in mf.ideal_paths()))


@dataclass(frozen=True)
class FitResult:
    triform: TriForm
    c2form: C2Form
    samples: tuple
    elapsed: float


def _fit(ideal) -> FitResult:
    t0 = time.perf_counter()
    samples = tuple((bd, hilbert_dim(ideal, bd)) for bd in default_sample_grid(3))
    tri, c2 = fit_chi(samples)
    return FitResult(tri, c2, samples, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def ex41_fit(ex41_ideal) -> FitResult:
    return _fit(ex41_ideal)


@pytest.fixture(scope="session")
def oguiso_fit(oguiso_ideal) -> FitResult:
    return _fit(oguiso_ideal)

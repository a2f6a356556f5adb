"""Command-line surface: verify, derive, sweep, reduce and h0 on model files.

Exit codes: 0 success, 2 validation failure, 3 parse error.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

import click

from . import chow, growth, hilbert, models, properties
from .cones import (
    DivisorClass,
    Dynamics,
    eigen_sigma,
    fundamental_domain,
    prepare,
    reduce_to_domain,
    validate_model,
)
from .riemann_roch import chi_nef

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(path: str) -> models.ModelFile:
    try:
        return models.load_model(path)
    except models.ModelParseError as exc:
        _fail(EXIT_PARSE, str(exc))


def _parse_class(text: str) -> DivisorClass:
    try:
        p, q = (int(v.strip()) for v in text.split(","))
    except ValueError:
        _fail(EXIT_PARSE, f'expected an integral class "p,q", got {text!r}')
    return DivisorClass.from_ints(p, q)


class _Group(click.Group):
    """Reports a usage error as one error line with the parse-error code."""

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except click.UsageError as exc:
            _fail(EXIT_PARSE, exc.format_message())
        except click.Abort:
            click.echo("Aborted!", err=True)
            sys.exit(1)


@click.group(cls=_Group, no_args_is_help=False)
def main():
    """Exact cone dynamics and section-count growth for rank-2 models."""


@main.command()
@click.argument("model_file")
@click.option("--samples", default=200, show_default=True, help="Random cases per property suite.")
@click.option("--seed", default=0, show_default=True, help="Seed for the property suites.")
def verify(model_file: str, samples: int, seed: int):
    """Validate a model and run its randomized property suites."""
    if samples < 1:
        _fail(EXIT_VALIDATION, f"--samples must be at least 1, got {samples}")
    mf = _load(model_file)
    failures = 0

    def report(name: str, problem: str | None):
        nonlocal failures
        if problem is None:
            click.echo(f"PASS {name}")
        else:
            failures += 1
            click.echo(f"FAIL {name}: {problem}")

    try:
        model = mf.to_cymodel()
    except ValueError as exc:
        report("model-invariants", str(exc))
        sys.exit(EXIT_VALIDATION)

    issues = validate_model(model)
    if issues:
        for issue in issues:
            report("model-invariants", issue)
        sys.exit(EXIT_VALIDATION)
    report("model-invariants", None)

    s = eigen_sigma(model)
    click.echo(f"lambda = {s.eigenvalue}")
    report("eigen-analysis", None)
    dyn = Dynamics(model, s, fundamental_domain(model, model.nef1 + model.nef2))
    report("fundamental-domain", None)

    rng = random.Random(seed)
    suites = (
        ("area-invariance", properties.area_invariance, samples, False),
        ("slope-scaling", properties.slope_scaling, samples, False),
        ("wall-crossing-sandwich", properties.wall_crossing_sandwich, samples, True),
        ("section-count-word-invariance", properties.section_count_word_invariance, max(1, samples // 5), False),
        ("chi-integrality", properties.chi_integrality, 6, False),
        ("floor-bracketing", properties.floor_bracketing, samples, False),
        ("cone-membership", properties.cone_membership, samples, False),
    )
    for name, suite, count, needs_involutions in suites:
        if needs_involutions and not model.has_involutions:
            click.echo(f"SKIP {name}: model has no birational involutions")
            continue
        report(name, suite(dyn, rng, count))

    sys.exit(EXIT_VALIDATION if failures else EXIT_OK)


@main.command()
@click.argument("model_file")
@click.option("--grid", default=3, show_default=True, help="Max bidegree coordinate for fit samples.")
@click.option("--out", type=click.Path(), default=None, help="Write here instead of in place.")
@click.option("--force", is_flag=True, help="Overwrite conflicting stored values.")
def derive(model_file: str, grid: int, out: str | None, force: bool):
    """Derive triform/c2form from the ci block and/or ideal files."""
    mf = _load(model_file)
    if mf.ci is None and mf.ideal_files is None:
        _fail(EXIT_VALIDATION, "model has neither a ci block nor ideal files to derive from")

    results = {}
    if mf.ci is not None:
        ci = chow.CIData(chow.MultiProjAmbient(tuple(mf.ci["dims"])), tuple(tuple(d) for d in mf.ci["degrees"]))
        try:
            results["chow"] = chow.intersection_data(ci)
        except ValueError as exc:
            _fail(EXIT_VALIDATION, f"chow derivation failed: {exc}")
    if mf.ideal_files is not None:
        try:
            ideal = hilbert.merge_ideals(*(hilbert.load_ideal_file(p) for p in mf.ideal_paths()))
        except (OSError, ValueError) as exc:
            _fail(EXIT_PARSE, f"ideal files: {exc}")
        t0 = time.perf_counter()
        try:
            samples = [
                (bd, hilbert.hilbert_dim(ideal, bd)) for bd in hilbert.default_sample_grid(grid)
            ]
            results["hilbert-fit"] = hilbert.fit_chi(samples)
        except (ValueError, hilbert.RankDisagreement) as exc:
            _fail(EXIT_VALIDATION, f"hilbert derivation failed: {exc}")
        click.echo(f"hilbert fit over {len(samples)} bidegrees in {time.perf_counter() - t0:.1f}s")

    values = list(results.values())
    if len(values) == 2 and values[0] != values[1]:
        _fail(
            EXIT_VALIDATION,
            f"derivations disagree: chow gives {values[0][0].as_tuple()}/{values[0][1].as_tuple()}, "
            f"hilbert fit gives {values[1][0].as_tuple()}/{values[1][1].as_tuple()}",
        )
    tri, c2 = values[0]
    tag = "+".join(results)
    click.echo(f"triform = {tri.as_tuple()}  c2form = {c2.as_tuple()}  [{tag}]")

    stored = (tuple(mf.triform), tuple(mf.c2form))
    derived = (tri.as_tuple(), c2.as_tuple())
    if stored != derived and not force:
        _fail(
            EXIT_VALIDATION,
            f"derived values {derived} conflict with stored {stored}; use --force to overwrite",
        )
    mf.triform = tri.as_tuple()
    mf.c2form = c2.as_tuple()
    prov = dict(mf.provenance or {})
    prov["triform"] = tag
    prov["c2form"] = tag
    mf.provenance = prov
    target = Path(out) if out else mf.path
    try:
        models.save_model(mf, target)
    except OSError as exc:
        _fail(EXIT_VALIDATION, f"cannot write {target}: {exc.strerror or exc}")
    click.echo(f"wrote {target}")


def _prepare(model_file: str) -> Dynamics:
    mf = _load(model_file)
    try:
        return prepare(mf.to_cymodel())
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))


@main.command()
@click.argument("model_file")
@click.option("--ray", type=click.Choice(["r1", "r2"]), default="r1", show_default=True)
@click.option("--dir", "direction", default=None, help='Integral sweep direction "p,q" (overrides --ray).')
@click.option("--ample", default="5,5", show_default=True, help='Ample shift "p,q".')
@click.option("--mmin", default=256, show_default=True)
@click.option("--mmax", default=1 << 20, show_default=True)
@click.option("--out", type=click.Path(), default="sweep.csv", show_default=True)
def sweep(model_file: str, ray: str, direction: str | None, ample: str, mmin: int, mmax: int, out: str):
    """Run the section-count growth sweep and fit the exponent."""
    dyn = _prepare(model_file)
    ample_cls = _parse_class(ample)
    ray_arg = _parse_class(direction) if direction else ray
    # the temp file is opened before the sweep, so an unwritable --out fails
    # before any computation; out is replaced only after the fit succeeds
    try:
        with models.atomic_write(out) as fp:
            try:
                ms = growth.geometric_grid(mmin, mmax)
                records = growth.sweep(dyn.model, dyn.sigma, dyn.pi, ample_cls, ms, ray=ray_arg)
                report = growth.estimate_exponent(records)
            except ValueError as exc:
                _fail(EXIT_VALIDATION, str(exc))
            growth.write_csv(records, fp)
    except OSError as exc:
        _fail(EXIT_VALIDATION, f"cannot write {out}: {exc.strerror or exc}")
    click.echo(f"wrote {out} ({len(records)} records)")
    click.echo(
        f"slope = {report.slope:.4f}  intercept = {report.intercept:.4f}  "
        f"residual = {report.residual:.4f}"
    )
    click.echo(f"h0/m^1.5 band = [{report.band_min:.4f}, {report.band_max:.4f}]")


@main.command()
@click.argument("model_file")
@click.argument("cls")
def reduce(model_file: str, cls: str):
    """Reduce an integral movable class into the fundamental domain."""
    dyn = _prepare(model_file)
    D = _parse_class(cls)
    try:
        word, reduced = reduce_to_domain(dyn.model, dyn.sigma, dyn.pi, D)
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    p, q = reduced.integer_coords()
    click.echo(f"word = [{' '.join(word)}]")
    click.echo(f"reduced = {p},{q}")


@main.command()
@click.argument("model_file")
@click.argument("cls")
def h0(model_file: str, cls: str):
    """Section count of an integral class in the open movable cone."""
    dyn = _prepare(model_file)
    D = _parse_class(cls)
    try:
        word, reduced = reduce_to_domain(dyn.model, dyn.sigma, dyn.pi, D)
        count = chi_nef(dyn.model, reduced)
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    p, q = reduced.integer_coords()
    click.echo(f"word = [{' '.join(word)}]")
    click.echo(f"reduced = {p},{q}")
    click.echo(f"h0 = {count}")


if __name__ == "__main__":
    main()

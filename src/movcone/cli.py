"""Command-line surface: verify, derive, sweep, reduce and h0 on model files.

Exit codes: 0 success, 2 validation failure, 3 parse error.

Each command imports the modules it runs inside its own body, so a cold `h0`
loads neither the property suites nor the algebra oracles.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from . import models
from .cones import DivisorClass, Dynamics, prepare, reduce_to_domain

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3


def _echo(text: str, err: bool = False) -> None:
    print(text, file=sys.stderr if err else sys.stdout, flush=True)


def _fail(code: int, message: str):
    _echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(path: str) -> models.ModelFile:
    try:
        return models.load_model(path)
    except models.ModelParseError as exc:
        _fail(EXIT_PARSE, str(exc))


def _lift_int_limit() -> None:
    """Let str() print integers of any length once argv and the model file
    are parsed: the interpreter's 4300-digit limit bounds that parsing, not
    the exact results.  main() puts the limit back."""
    if hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.7+; older ones have no limit
        sys.set_int_max_str_digits(0)


def _parse_class(text: str) -> DivisorClass:
    try:
        p, q = (int(v.strip()) for v in text.split(","))
    except ValueError:
        _fail(EXIT_PARSE, f'expected an integral class "p,q", got {text!r}')
    return DivisorClass.from_ints(p, q)


def _ray(text: str) -> str:
    if text not in ("r1", "r2"):
        raise ValueError(text)
    return text


# command name -> (function, argument names, options); an option is
# (name, default, convert, help) and convert None marks a flag.  The function
# takes the arguments, then the option values, in table order.
_COMMANDS: dict[str, tuple] = {}


def _command(arguments: tuple[str, ...], *options: tuple):
    def register(func):
        _COMMANDS[func.__name__] = (func, arguments, options)
        return func

    return register


def _help(name: str | None) -> str:
    """Help for the whole program or one command, from the docstrings (absent
    under `python -OO`) and the option table."""
    if name is None:
        usage, doc, title = "COMMAND [ARGS]...", main.__doc__ or "", "Commands"
        rows = [(n, (f.__doc__ or "").partition("\n")[0]) for n, (f, _, _) in sorted(_COMMANDS.items())]
    else:
        func, arguments, options = _COMMANDS[name]
        usage, doc, title = f"{name} [OPTIONS] {' '.join(arguments)}", func.__doc__ or "", "Options"
        rows = [
            (f"--{opt} VALUE", f"{text}  [default: {default}]" if default is not None else text)
            if convert
            else (f"--{opt}", text)
            for opt, default, convert, text in options
        ]
        rows.append(("--help", "Show this message and exit."))
    width = max(len(left) for left, _ in rows)
    table = "\n".join(f"  {left:<{width}}  {right}" for left, right in rows)
    return f"Usage: movcone {usage}\n\n  {doc}\n\n{title}:\n{table}"


def _parse(name: str, argv: list[str]) -> list:
    """The arguments and option values of one command, in table order.
    Options may sit anywhere before "--", as "--opt value" or "--opt=value";
    an option's value may begin with a minus."""
    _, arguments, options = _COMMANDS[name]
    table = {f"--{opt[0]}": opt for opt in options}
    values = {opt[0]: opt[1] for opt in options}
    positional = []
    rest = iter(argv)
    for arg in rest:
        if arg == "--":
            positional.extend(rest)
            break
        if arg == "--help":
            _echo(_help(name))
            sys.exit(EXIT_OK)
        if not arg.startswith("-") or arg == "-":
            positional.append(arg)
            continue
        flag, eq, value = arg.partition("=")
        if flag not in table:
            _fail(EXIT_PARSE, f"No such option '{flag}'.")
        opt, _, convert, _ = table[flag]
        if convert is None:
            if eq:
                _fail(EXIT_PARSE, f"Option '{flag}' does not take a value.")
            values[opt] = True
            continue
        if not eq:
            value = next(rest, None)
            if value is None:
                _fail(EXIT_PARSE, f"Option '{flag}' requires an argument.")
        try:
            values[opt] = convert(value)
        except ValueError:
            _fail(EXIT_PARSE, f"Invalid value for '{flag}': {value!r}.")
    if len(positional) < len(arguments):
        _fail(EXIT_PARSE, f"Missing argument '{arguments[len(positional)]}'.")
    if len(positional) > len(arguments):
        _fail(EXIT_PARSE, f"Got unexpected extra argument ({positional[len(arguments)]})")
    return positional + [values[opt[0]] for opt in options]


def main(argv: list[str] | None = None) -> None:
    """Exact cone dynamics and section-count growth for rank-2 models."""
    args = sys.argv[1:] if argv is None else list(argv)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before 3.10.7
    try:
        if not args:
            _fail(EXIT_PARSE, "Missing command.")
        name, *rest = args
        if name == "--help":
            _echo(_help(None))
        elif name in _COMMANDS:
            _COMMANDS[name][0](*_parse(name, rest))
        elif name.startswith("-"):
            _fail(EXIT_PARSE, f"No such option '{name}'.")
        else:
            _fail(EXIT_PARSE, f"No such command '{name}'.")
    except KeyboardInterrupt:
        _echo("\nAborted!", err=True)
        sys.exit(1)
    except BrokenPipeError:
        # the reader closed stdout (`movcone verify ... | head -1`); point the
        # descriptor at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@_command(
    ("MODEL_FILE",),
    ("samples", 200, int, "Random cases per property suite."),
    ("seed", 0, int, "Seed for the property suites."),
)
def verify(model_file: str, samples: int, seed: int):
    """Validate a model and run its randomized property suites."""
    import random

    from . import properties

    if samples < 1:
        _fail(EXIT_VALIDATION, f"--samples must be at least 1, got {samples}")
    mf = _load(model_file)
    _lift_int_limit()
    failures = 0

    def report(name: str, problem: str | None):
        nonlocal failures
        if problem is None:
            _echo(f"PASS {name}")
        else:
            failures += 1
            _echo(f"FAIL {name}: {problem}")

    try:
        dyn = prepare(mf.to_cymodel())
    except ValueError as exc:
        for issue in exc.args:
            report("model-invariants", issue)
        sys.exit(EXIT_VALIDATION)
    report("model-invariants", None)
    _echo(f"lambda = {dyn.sigma.eigenvalue}")
    report("eigen-analysis", None)
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
        if needs_involutions and not dyn.model.has_involutions:
            _echo(f"SKIP {name}: model has no birational involutions")
            continue
        report(name, suite(dyn, rng, count))

    sys.exit(EXIT_VALIDATION if failures else EXIT_OK)


@_command(
    ("MODEL_FILE",),
    ("grid", 3, int, "Max bidegree coordinate for fit samples, 3 to 6."),
    ("out", None, str, "Write here instead of in place."),
    ("force", False, None, "Overwrite conflicting stored values."),
)
def derive(model_file: str, grid: int, out: str | None, force: bool):
    """Derive triform/c2form from the ci block and/or ideal files."""
    from . import chow, hilbert

    mf = _load(model_file)
    if mf.ci is None and mf.ideal_files is None:
        _fail(EXIT_VALIDATION, "model has neither a ci block nor ideal files to derive from")

    results = {}
    if mf.ci is not None:
        try:
            ci = chow.CIData(chow.MultiProjAmbient(tuple(mf.ci["dims"])), tuple(tuple(d) for d in mf.ci["degrees"]))
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
        except ValueError as exc:
            _fail(EXIT_VALIDATION, f"hilbert derivation failed: {exc}")
        _echo(f"hilbert fit over {len(samples)} bidegrees in {time.perf_counter() - t0:.1f}s")

    values = list(results.values())
    if len(values) == 2 and values[0] != values[1]:
        _fail(
            EXIT_VALIDATION,
            f"derivations disagree: chow gives {values[0][0].as_tuple()}/{values[0][1].as_tuple()}, "
            f"hilbert fit gives {values[1][0].as_tuple()}/{values[1][1].as_tuple()}",
        )
    tri, c2 = values[0]
    tag = "+".join(results)
    _echo(f"triform = {tri.as_tuple()}  c2form = {c2.as_tuple()}  [{tag}]")

    stored = (tuple(mf.triform), tuple(mf.c2form))
    derived = (tri.as_tuple(), c2.as_tuple())
    if stored != derived and not force:
        _fail(
            EXIT_VALIDATION,
            f"derived values {derived} conflict with stored {stored}; use --force to overwrite",
        )
    prov = dict(mf.provenance or {}, triform=tag, c2form=tag)
    fields = dict(zip(mf._fields, mf.as_tuple()), triform=derived[0], c2form=derived[1], provenance=prov)
    mf = models.ModelFile(*fields.values())
    target = Path(out) if out else mf.path
    try:
        models.save_model(mf, target)
    except OSError as exc:
        _fail(EXIT_VALIDATION, f"cannot write {target}: {exc.strerror or exc}")
    _echo(f"wrote {target}")


def _prepare(model_file: str) -> Dynamics:
    """The model's dynamics; the command's other arguments are parsed first."""
    mf = _load(model_file)
    _lift_int_limit()
    try:
        return prepare(mf.to_cymodel())
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))


@_command(
    ("MODEL_FILE",),
    ("ray", "r1", _ray, "Boundary ray to sweep along: r1 or r2."),
    ("dir", None, str, 'Integral sweep direction "p,q" (overrides --ray).'),
    ("ample", "5,5", str, 'Ample shift "p,q".'),
    ("mmin", 256, int, "Smallest multiple on the grid."),
    ("mmax", 1 << 20, int, "Largest multiple on the grid."),
    ("out", "sweep.csv", str, "CSV output path."),
)
def sweep(model_file: str, ray: str, direction: str | None, ample: str, mmin: int, mmax: int, out: str):
    """Run the section-count growth sweep and fit the exponent."""
    from . import growth

    ample_cls = _parse_class(ample)
    ray_arg = _parse_class(direction) if direction else ray
    dyn = _prepare(model_file)
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
    _echo(f"wrote {out} ({len(records)} records)")
    _echo(
        f"slope = {report.slope:.4f}  intercept = {report.intercept:.4f}  "
        f"residual = {report.residual:.4f}"
    )
    _echo(f"h0/m^1.5 band = [{report.band_min:.4f}, {report.band_max:.4f}]")


def _reduced(model_file: str, cls: str, count=None):
    """Reduce CLS into the fundamental domain, print the word and the reduced
    class, and return count(model, reduced) when count is given.  A
    ValueError from either step is one error line, before anything else."""
    D = _parse_class(cls)
    dyn = _prepare(model_file)
    try:
        word, reduced = reduce_to_domain(dyn.model, dyn.sigma, dyn.pi, D)
        value = count(dyn.model, reduced) if count else None
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    p, q = reduced.integer_coords()
    _echo(f"word = [{' '.join(word)}]")
    _echo(f"reduced = {p},{q}")
    return value


@_command(("MODEL_FILE", "CLS"))
def reduce(model_file: str, cls: str):
    """Reduce an integral movable class into the fundamental domain."""
    _reduced(model_file, cls)


@_command(("MODEL_FILE", "CLS"))
def h0(model_file: str, cls: str):
    """Section count of an integral class in the open movable cone."""
    from .riemann_roch import chi_nef

    _echo(f"h0 = {_reduced(model_file, cls, chi_nef)}")


if __name__ == "__main__":
    main()

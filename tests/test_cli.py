import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import movcone
from movcone import growth, properties
from movcone.cli import main
from movcone.models import (
    ModelFile,
    ModelParseError,
    bundled_model_path,
    data_dir,
    list_bundled_models,
    load_model,
    parse_model_text,
    save_model,
)

BUNDLED = ("example41", "oguiso", "synthetic-bminus-empty")


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_bundled_list():
    assert list_bundled_models() == sorted(BUNDLED)


def test_roundtrip_byte_identical():
    for name in BUNDLED:
        path = bundled_model_path(name)
        raw = path.read_text()
        assert load_model(path).to_json() == raw


def test_save_model_failure_keeps_target(tmp_path, monkeypatch):
    target = tmp_path / "oguiso.model"
    shutil.copy(bundled_model_path("oguiso"), target)
    before = target.read_bytes()
    mf = load_model(target)
    # a lone surrogate cannot be encoded, so the write fails part way
    monkeypatch.setattr(ModelFile, "to_json", lambda self: '{"name": "\ud800"}\n')
    with pytest.raises(UnicodeEncodeError):
        save_model(mf, target)
    assert target.read_bytes() == before
    assert list(tmp_path.iterdir()) == [target]
    monkeypatch.undo()
    save_model(mf, target)
    assert target.read_bytes() == before
    assert list(tmp_path.iterdir()) == [target]


def test_unknown_field_rejected():
    doc = json.loads(bundled_model_path("oguiso").read_text())
    doc["extra"] = 1
    with pytest.raises(ModelParseError):
        parse_model_text(json.dumps(doc))


def test_convention_field_mandatory():
    doc = json.loads(bundled_model_path("oguiso").read_text())
    doc["convention"] = "rows-are-images"
    with pytest.raises(ModelParseError):
        parse_model_text(json.dumps(doc))


def test_tau_and_sigma_exclusive():
    doc = json.loads(bundled_model_path("oguiso").read_text())
    doc["sigma"] = [1, 0, 0, 1]
    with pytest.raises(ModelParseError):
        parse_model_text(json.dumps(doc))


def test_verify_bundled_models(runner):
    for name in BUNDLED:
        result = invoke(runner, "verify", str(bundled_model_path(name)), "--samples", "40")
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output


def test_verify_prints_lambda(runner):
    result = invoke(runner, "verify", str(bundled_model_path("example41")), "--samples", "20")
    assert "lambda = 23 + 4*sqrt(33)" in result.output


def test_verify_tampered_involution(runner, tmp_path):
    doc = json.loads(bundled_model_path("example41").read_text())
    doc["tau1"] = [1, 6, 0, 1]
    bad = tmp_path / "bad.model"
    bad.write_text(json.dumps(doc))
    result = invoke(runner, "verify", str(bad), "--samples", "10")
    assert result.exit_code == 2
    assert "FAIL model-invariants" in result.output


def test_verify_broken_chi_integrality(runner, tmp_path):
    doc = json.loads(bundled_model_path("example41").read_text())
    doc["c2form"] = [45, 56]
    bad = tmp_path / "bad.model"
    bad.write_text(json.dumps(doc))
    result = invoke(runner, "verify", str(bad), "--samples", "10")
    assert result.exit_code == 2
    assert "chi integrality" in result.output


def test_verify_reports_failing_property_suite(runner, monkeypatch):
    monkeypatch.setattr(properties, "area_coordinate", lambda D, s: D.p)
    result = invoke(runner, "verify", str(bundled_model_path("example41")), "--samples", "10")
    assert result.exit_code == 2
    assert "FAIL area-invariance: area changed under sigma for" in result.output


def test_verify_parse_error_exit_code(runner, tmp_path):
    bad = tmp_path / "garbage.model"
    bad.write_text("{not json")
    result = invoke(runner, "verify", str(bad))
    assert result.exit_code == 3


def _stage(tmp_path, name):
    """Copy a bundled model and its ideal files into a scratch directory."""
    target = tmp_path / f"{name}.model"
    shutil.copy(bundled_model_path(name), target)
    mf = load_model(bundled_model_path(name))
    for ideal in mf.ideal_files or ():
        shutil.copy(data_dir() / ideal, tmp_path / ideal)
    return target


def test_derive_oguiso_agreement(runner, tmp_path):
    path = _stage(tmp_path, "oguiso")
    result = invoke(runner, "derive", str(path))
    assert result.exit_code == 0, result.output
    assert "(2, 6, 6, 2)" in result.output
    assert "chow+hilbert-fit" in result.output
    assert load_model(path).triform == (2, 6, 6, 2)


def test_derive_disagreeing_routes_error(runner, tmp_path):
    path = _stage(tmp_path, "oguiso")
    doc = json.loads(path.read_text())
    doc["ci"]["degrees"] = [[1, 1], [2, 1], [1, 2]]  # different family
    path.write_text(json.dumps(doc))
    result = invoke(runner, "derive", str(path))
    assert result.exit_code == 2
    assert "disagree" in result.output + result.stderr


def test_derive_pfaffian_model_conflicts_with_reference(runner, tmp_path):
    path = _stage(tmp_path, "example41")
    result = invoke(runner, "derive", str(path))
    assert result.exit_code == 2
    assert "(2, 6, 8, 4)" in result.output + result.stderr
    out = tmp_path / "derived.model"
    forced = invoke(runner, "derive", str(path), "--force", "--out", str(out))
    assert forced.exit_code == 0, forced.output
    derived = load_model(out)
    assert derived.triform == (2, 6, 8, 4)
    assert derived.c2form == (44, 52)
    assert derived.provenance["triform"] == "hilbert-fit"


def test_derive_without_sources(runner, tmp_path):
    path = _stage(tmp_path, "synthetic-bminus-empty")
    result = invoke(runner, "derive", str(path))
    assert result.exit_code == 2


def test_sweep_cli(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    result = invoke(runner, "sweep", str(bundled_model_path("example41")), "--out", str(out))
    assert result.exit_code == 0, result.output
    assert "slope =" in result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "m,p,q,h0,l1_approx,word_len,skipped"
    assert len(lines) == 14


@pytest.mark.parametrize("command", ["sweep", "derive"])
def test_unwritable_out_is_one_error_line(command, tmp_path):
    target = tmp_path / "missing" / "out"
    result = CliRunner().invoke(main, [command, str(_stage(tmp_path, "oguiso")), "--out", str(target)])
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(
        result.exception
    )
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ") and len(result.stderr.splitlines()) == 1, result.stderr


def test_unwritable_out_skips_the_sweep(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(growth, "sweep", lambda *args, **kw: calls.append(args))
    target = tmp_path / "missing" / "s.csv"
    result = CliRunner().invoke(main, ["sweep", str(bundled_model_path("oguiso")), "--out", str(target)])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: cannot write {target}") and len(result.stderr.splitlines()) == 1
    assert calls == []


@pytest.mark.parametrize(
    "args, message",
    [
        (["--ample", "0,1"], "[0, 1] is not ample (not interior to the nef cone)"),
        (["--mmax", "512"], "insufficient span: need at least 8 records, got 2"),
        (["--mmin", "0"], "need 1 <= mmin <= mmax"),
    ],
    ids=["sweep-fails", "fit-fails", "grid-fails"],
)
def test_failed_sweep_keeps_existing_csv(runner, tmp_path, args, message):
    out = tmp_path / "sweep.csv"
    out.write_text("old\n")
    result = runner.invoke(main, ["sweep", str(bundled_model_path("oguiso")), "--out", str(out), *args])
    assert result.exit_code == 2
    assert result.stderr == f"error: {message}\n"
    assert out.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_samples_below_one(runner, samples):
    result = runner.invoke(main, ["verify", str(bundled_model_path("example41")), "--samples", samples])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: --samples must be at least 1, got {samples}\n"


def test_sweep_rejects_non_ample(runner):
    result = invoke(runner, "sweep", str(bundled_model_path("example41")), "--ample", "0,1")
    assert result.exit_code == 2


def test_reduce_cli(runner):
    # "--" keeps the leading-minus class from being read as a flag
    result = invoke(runner, "reduce", str(bundled_model_path("example41")), "--", "-1,8")
    assert result.exit_code == 0
    assert "word = [tau2]" in result.output
    assert "reduced = 1,0" in result.output


def test_h0_cli(runner):
    result = invoke(runner, "h0", str(bundled_model_path("example41")), "1,1")
    assert result.exit_code == 0
    assert "h0 = 16" in result.output
    assert "word = []" in result.output

    result = invoke(runner, "h0", str(bundled_model_path("example41")), "--", "-1,8")
    assert "h0 = 4" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["h0", "example41", "3,2"],
        ["reduce", "example41", "--", "-1,8"],
        ["sweep", "example41", "--out", "{tmp}/s.csv"],
        ["verify", "example41"],
        ["derive", "oguiso", "--out", "{tmp}/oguiso.model"],
    ],
    ids=lambda args: args[0],
)
def test_command_leaves_numpy_unloaded(args, tmp_path):
    argv = [str(bundled_model_path(a)) if a in BUNDLED else a.format(tmp=tmp_path) for a in args]
    code = (
        "import sys, movcone\n"
        "from movcone.cli import main\n"
        f"try:\n    main({argv!r})\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
        "assert 'numpy' not in sys.modules\n"
    )
    # the child imports the same movcone as this process
    path = [str(Path(movcone.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_h0_outside_cone(runner):
    result = invoke(runner, "h0", str(bundled_model_path("example41")), "--", "-1,0")
    assert result.exit_code == 2


def test_class_parse_error(runner):
    result = invoke(runner, "h0", str(bundled_model_path("example41")), "1;1")
    assert result.exit_code == 3


@pytest.mark.parametrize(
    "args",
    [
        [],
        ["frobnicate"],
        ["h0", "example41", "1,1", "--bogus"],
        ["h0", "example41"],
        ["h0", "example41", "1,1", "2,2"],
        ["verify", "example41", "--samples", "abc"],
        ["sweep", "example41", "--ray", "r3"],
        ["h0", "example41", "-1,8"],
    ],
    ids=["no-command", "unknown-command", "unknown-option", "missing-argument", "extra-argument",
         "bad-integer", "bad-choice", "minus-without-dashes"],
)
def test_usage_error_is_one_parse_error_line(runner, args):
    argv = [str(bundled_model_path(a)) if a in BUNDLED else a for a in args]
    result = runner.invoke(main, argv)
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and len(result.stderr.splitlines()) == 1, result.stderr


def test_help_and_negative_option_values_still_parse(runner, tmp_path):
    for args in (["--help"], ["h0", "--help"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 0 and result.stdout.startswith("Usage: "), result.output
    out = tmp_path / "s.csv"
    result = invoke(runner, "sweep", str(bundled_model_path("example41")), "--dir", "-1,8", "--out", str(out))
    assert result.exit_code == 0, result.output
    assert out.read_text().splitlines()[1].startswith("256,-251,2053,")


# example41 with involutions that fix H1 and H2 but turn the movable cone away
# from the nef cone; sigma keeps lambda = 23 + 4*sqrt(33)
_REVERSED = (("tau1", "tau2"), ([1, -6, 0, -1], [-1, 0, -8, 1]))


def _mutated(tmp_path, name, field, value):
    """A bundled model with field set to value, or each field of a tuple to
    the matching entry of value."""
    doc = json.loads(bundled_model_path(name).read_text())
    doc.update(zip(field, value) if isinstance(field, tuple) else [(field, value)])
    path = tmp_path / "mutated.model"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "name, field, value, code",
    [
        # sigma that validation used to pass but the eigen-analysis or the
        # fundamental domain rejected
        ("synthetic-bminus-empty", "sigma", [0, 0, 0, 0], 2),
        ("synthetic-bminus-empty", "sigma", [-3, 1, -1, 0], 2),
        ("synthetic-bminus-empty", "sigma", [3, -1, 1, 0], 2),
        # JSON true/false are not integers
        ("synthetic-bminus-empty", "sigma", [-1, -2, 4, True], 3),
        ("example41", "tau1", [True, 6, 0, -1], 3),
        ("example41", "tau2", [-1, 0, 8, True], 3),
        ("example41", "triform", [2, 6, 8, False], 3),
        ("example41", "c2form", [True, 56], 3),
        ("oguiso", "ci", {"dims": [3, True], "degrees": [[1, 1], [1, 1], [2, 2]]}, 3),
        ("oguiso", "ci", {"dims": [3, 3], "degrees": [[1, 1], [1, True], [2, 2]]}, 3),
        pytest.param("example41", *_REVERSED, 2, id="example41-reversed-involutions-2"),
    ],
)
@pytest.mark.parametrize("command", ["h0", "reduce", "sweep"])
def test_invalid_model_exits_with_one_error_line(runner, tmp_path, name, field, value, code, command):
    path = _mutated(tmp_path, name, field, value)
    args = ["--out", str(tmp_path / "s.csv")] if command == "sweep" else ["1,1"]
    result = runner.invoke(main, [command, str(path), *args])
    assert result.exit_code == code, result.output
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ")


def test_verify_rejects_involutions_reversing_the_cone(runner, tmp_path):
    result = invoke(runner, "verify", str(_mutated(tmp_path, "example41", *_REVERSED)))
    assert result.exit_code == 2
    assert result.stdout == (
        "FAIL model-invariants: nef1: nef generator lies outside the open movable cone of sigma\n"
        "FAIL model-invariants: nef2: nef generator lies outside the open movable cone of sigma\n"
    )


_MUTABLE = {"triform": 4, "c2form": 2, "tau1": 4, "tau2": 4, "sigma": 4}
_small = st.integers(-4, 4)
_entries = st.one_of(
    _small, st.integers(-60, 60), st.booleans(), st.none(), st.just("1"), st.just(1.5)
)


@st.composite
def _model_texts(draw):
    """A bundled model with a few fields dropped, replaced or edited in place,
    or its involutions swapped for a small random sigma."""
    doc = json.loads(bundled_model_path(draw(st.sampled_from(BUNDLED))).read_text())
    for _ in range(draw(st.integers(1, 3))):
        present = sorted(k for k in _MUTABLE if k in doc)
        if not present:
            break
        key = draw(st.sampled_from(present))
        size = _MUTABLE[key]
        action = draw(st.sampled_from(["edit", "small", "list", "drop", "sigma"]))
        if action == "drop":
            doc.pop(key, None)
        elif action == "sigma":
            doc.pop("tau1", None)
            doc.pop("tau2", None)
            doc["sigma"] = draw(st.lists(st.integers(-3, 4), min_size=4, max_size=4))
        elif action == "small":
            doc[key] = draw(st.lists(_small, min_size=size, max_size=size))
        elif action == "list":
            doc[key] = draw(st.lists(_entries, max_size=5))
        else:
            vals = list(doc.get(key) or [0] * size)
            vals[draw(st.integers(0, len(vals) - 1))] = draw(_entries)
            doc[key] = vals
    return json.dumps(doc)


_classes = st.one_of(
    st.tuples(st.integers(-40, 40), st.integers(-40, 40)).map(lambda t: f"{t[0]},{t[1]}"),
    st.text(max_size=6),
)


@settings(max_examples=100, deadline=None)
@given(text=_model_texts(), cls=_classes, command=st.sampled_from(["verify", "h0", "reduce"]))
def test_cli_contract_on_mutated_models(text, cls, command):
    """Any model file and class string gives exit 0, 2 or 3 and no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.model"
        path.write_text(text)
        args = ["--samples", "5"] if command == "verify" else ["--", cls]
        result = CliRunner().invoke(main, [command, str(path), *args])
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(
        result.exception
    )
    assert result.exit_code in (0, 2, 3), result.output


_COEFF = re.compile(r"^(\s*[+-]?\s*)(\d+\*)?")


def _edit_terms(line, edit):
    """Apply edit to each '+'/'-'-separated term of a generator line."""
    return "".join(edit(t) for t in re.split(r"(?=[+-])", line))


@st.composite
def _ideal_texts(draw):
    """A bundled model's ideal files with generator lines dropped, duplicated,
    rescaled, raised by a variable or re-exponentiated, linear forms inserted,
    or the ring header changed."""
    name = draw(st.sampled_from(["example41", "oguiso"]))
    names = load_model(bundled_model_path(name)).ideal_files
    files = {f: (data_dir() / f).read_text().splitlines() for f in names}
    for _ in range(draw(st.integers(1, 3))):
        lines = files[draw(st.sampled_from(sorted(files)))]
        head = next(i for i, line in enumerate(lines) if line.startswith("ring"))
        gens = range(head + 1, len(lines))
        action = draw(st.sampled_from(["drop", "dup", "linear", "coeff", "raise", "power", "ring"]))
        i = draw(st.sampled_from(gens)) if gens else head
        if action == "linear":
            kind, bound = draw(st.sampled_from([("x", 4), ("y", 6)]))
            term = st.tuples(st.integers(-3, 3).filter(bool), st.integers(0, bound - 1))
            terms = draw(st.lists(term, min_size=1, max_size=3))
            lines.insert(i + 1, " + ".join(f"{c}*{kind}{j}" for c, j in terms).replace("+ -", "- "))
        elif action == "ring":
            lines[head] = f"ring x={draw(st.integers(0, 5))} y={draw(st.integers(0, 7))}"
        elif i == head:
            continue
        elif action == "drop":
            del lines[i]
        elif action == "dup":
            lines.insert(i, lines[i])
        elif action == "coeff":
            k = draw(st.sampled_from([0, 2, 3, 7, 2**70]))
            lines[i] = _edit_terms(lines[i], lambda t: _COEFF.sub(rf"\g<1>{k}*", t))
        elif action == "raise":
            var = draw(st.sampled_from(["x0", "x3", "y1", "y5"]))
            lines[i] = _edit_terms(lines[i], lambda t: f"{t.rstrip()}*{var} " if t.strip() else t)
        else:
            power = draw(st.integers(0, 4))
            lines[i] = re.sub(r"([xy]\d)(\^\d+)?", rf"\g<1>^{power}", lines[i], count=1)
    return name, {f: "\n".join(lines) + "\n" for f, lines in files.items()}


@settings(max_examples=25, deadline=None)
@given(case=_ideal_texts())
def test_derive_contract_on_mutated_ideals(case):
    """Any ideal text gives exit 0, 2 or 3, one error line and no traceback."""
    name, files = case
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(bundled_model_path(name), Path(tmp) / "fuzz.model")
        for f, text in files.items():
            (Path(tmp) / f).write_text(text)
        out = str(Path(tmp) / "out.model")
        args = ["derive", str(Path(tmp) / "fuzz.model"), "--grid", "3", "--out", out]
        result = CliRunner().invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(
        result.exception
    )
    assert result.exit_code in (0, 2, 3), result.output
    if result.exit_code:
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.startswith("error: "), result.stderr

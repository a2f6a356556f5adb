import json
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import movcone
from cli_runner import invoke
from movcone import growth, properties
from movcone.cones import InvalidModel
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


def test_bundled_list():
    assert list_bundled_models() == sorted(BUNDLED)


def test_roundtrip_byte_identical():
    for name in BUNDLED:
        path = bundled_model_path(name)
        raw = path.read_text()
        mf = load_model(path)
        assert mf.to_json() == raw
        # path takes no part in equality, and a ModelFile is unhashable
        assert mf.path == path and mf == parse_model_text(raw)
        with pytest.raises(TypeError):
            hash(mf)


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


def test_tau_and_sigma_exclusive(tmp_path):
    """The parser types the maps only; CYModel rejects sigma beside the
    involutions, and the CLI reports that as a validation failure."""
    doc = json.loads(bundled_model_path("oguiso").read_text())
    doc["sigma"] = [1, 0, 0, 1]
    mf = parse_model_text(json.dumps(doc))
    with pytest.raises(InvalidModel, match="^give either tau1/tau2 or sigma, not both$"):
        mf.to_cymodel()
    path = tmp_path / "both.model"
    path.write_text(json.dumps(doc))
    result = invoke("h0", str(path), "1,1")
    assert result.exit_code == 2
    assert result.stderr == "error: give either tau1/tau2 or sigma, not both\n"


def test_verify_bundled_models():
    for name in BUNDLED:
        result = invoke("verify", str(bundled_model_path(name)), "--samples", "40")
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output


def test_verify_prints_lambda():
    result = invoke("verify", str(bundled_model_path("example41")), "--samples", "20")
    assert "lambda = 23 + 4*sqrt(33)" in result.output


def test_verify_tampered_involution(tmp_path):
    doc = json.loads(bundled_model_path("example41").read_text())
    doc["tau1"] = [1, 6, 0, 1]
    bad = tmp_path / "bad.model"
    bad.write_text(json.dumps(doc))
    result = invoke("verify", str(bad), "--samples", "10")
    assert result.exit_code == 2
    assert "FAIL model-invariants" in result.output


def test_verify_broken_chi_integrality(tmp_path):
    doc = json.loads(bundled_model_path("example41").read_text())
    doc["c2form"] = [45, 56]
    bad = tmp_path / "bad.model"
    bad.write_text(json.dumps(doc))
    result = invoke("verify", str(bad), "--samples", "10")
    assert result.exit_code == 2
    assert "chi integrality" in result.output


def test_verify_reports_failing_property_suite(monkeypatch):
    monkeypatch.setattr(properties, "area_coordinate", lambda D, s: D.p)
    result = invoke("verify", str(bundled_model_path("example41")), "--samples", "10")
    assert result.exit_code == 2
    assert "FAIL area-invariance: area changed under sigma for" in result.output


def test_verify_parse_error_exit_code(tmp_path):
    bad = tmp_path / "garbage.model"
    bad.write_text("{not json")
    result = invoke("verify", str(bad))
    assert result.exit_code == 3


def _stage(tmp_path, name):
    """Copy a bundled model and its ideal files into a scratch directory."""
    target = tmp_path / f"{name}.model"
    shutil.copy(bundled_model_path(name), target)
    mf = load_model(bundled_model_path(name))
    for ideal in mf.ideal_files or ():
        shutil.copy(data_dir() / ideal, tmp_path / ideal)
    return target


def test_derive_oguiso_agreement(tmp_path):
    path = _stage(tmp_path, "oguiso")
    result = invoke("derive", str(path))
    assert result.exit_code == 0, result.output
    assert "(2, 6, 6, 2)" in result.output
    assert "chow+hilbert-fit" in result.output
    assert load_model(path).triform == (2, 6, 6, 2)


def test_derive_disagreeing_routes_error(tmp_path):
    path = _stage(tmp_path, "oguiso")
    doc = json.loads(path.read_text())
    doc["ci"]["degrees"] = [[1, 1], [2, 1], [1, 2]]  # different family
    path.write_text(json.dumps(doc))
    result = invoke("derive", str(path))
    assert result.exit_code == 2
    assert "disagree" in result.output + result.stderr


def test_derive_pfaffian_model_conflicts_with_reference(tmp_path):
    path = _stage(tmp_path, "example41")
    result = invoke("derive", str(path))
    assert result.exit_code == 2
    assert "(2, 6, 8, 4)" in result.output + result.stderr
    out = tmp_path / "derived.model"
    forced = invoke("derive", str(path), "--force", "--out", str(out))
    assert forced.exit_code == 0, forced.output
    derived = load_model(out)
    assert derived.triform == (2, 6, 8, 4)
    assert derived.c2form == (44, 52)
    assert derived.provenance["triform"] == "hilbert-fit"


def test_derive_without_sources(tmp_path):
    path = _stage(tmp_path, "synthetic-bminus-empty")
    result = invoke("derive", str(path))
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "ci",
    [
        {"dims": [0, 3], "degrees": [[1, 1], [1, 1], [2, 2]]},
        {"dims": [], "degrees": [[]]},
        {"dims": [3, 3], "degrees": [[0, 0], [1, 1]]},
        {"dims": [1, 1], "degrees": [[1, 1], [1, 1], [1, 1]]},
    ],
)
def test_derive_invalid_ci_block_is_one_error_line(tmp_path, ci):
    """ci blocks the parser accepts but chow rejects: a P^0 factor, no
    factor, a zero multidegree, more hypersurfaces than ambient dimensions."""
    doc = json.loads(bundled_model_path("oguiso").read_text())
    del doc["ideal_files"]
    doc["ci"] = ci
    path = tmp_path / "ci.model"
    path.write_text(json.dumps(doc))
    result = invoke("derive", str(path), "--out", str(tmp_path / "out.model"))
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: chow derivation failed: ")
    assert len(result.stderr.splitlines()) == 1


def test_derive_ci_block_with_many_hyperplane_rows(tmp_path):
    """P^400 x P^400 cut by 397 rows (1,0), 397 rows (0,1) and (2,1), (1,2),
    (1,1): the hyperplanes only shrink the ambient, so the CY threefold is the
    one in P^3 x P^3."""
    n = 400
    doc = json.loads(bundled_model_path("oguiso").read_text())
    del doc["ideal_files"]
    doc["ci"] = {"dims": [n, n], "degrees": [[1, 0]] * (n - 3) + [[0, 1]] * (n - 3) + [[2, 1], [1, 2], [1, 1]]}
    path = tmp_path / "ci.model"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.model"
    result = invoke("derive", str(path), "--force", "--out", str(out))
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines()[0] == "triform = (2, 7, 7, 2)  c2form = (44, 44)  [chow]"
    assert (load_model(out).triform, load_model(out).c2form) == ((2, 7, 7, 2), (44, 44))


def test_derive_grid_past_the_cap_ranks_nothing(tmp_path, monkeypatch):
    calls, real = [], movcone.hilbert.hilbert_dim
    monkeypatch.setattr(movcone.hilbert, "hilbert_dim", lambda *args: calls.append(args) or real(*args))
    result = invoke("derive", str(_stage(tmp_path, "oguiso")), "--grid", "7")
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error: hilbert derivation failed: ")
    assert "cap 6" in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert calls == []


def test_derive_huge_ring_is_one_error_line(tmp_path):
    # x=100, y=100 passes the header bound and ranks (1, 1), but its (1, 2)
    # piece has 100 * 5050 monomials: refused before it is built
    path = _stage(tmp_path, "oguiso")
    (tmp_path / "oguiso_forms.ideal").write_text("ring x=100 y=100\nx0*y0\n")
    result = invoke("derive", str(path), "--out", str(tmp_path / "out.model"))
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: hilbert derivation failed: the bidegree (1, 2) piece has 505000 monomials")
    assert len(result.stderr.splitlines()) == 1


def test_derive_ring_header_past_the_bound_is_one_error_line(tmp_path, monkeypatch):
    # x*y = 10^6 monomials at (1, 1): refused at the header, no generator parsed
    monkeypatch.setattr(movcone.hilbert, "parse_poly", lambda *args: pytest.fail("parsed a generator"))
    path = _stage(tmp_path, "oguiso")
    (tmp_path / "oguiso_forms.ideal").write_text("ring x=1000000 y=1\n" + "x0*y0 + x1*y0 + x2*y0 + x3*y0\n" * 10)
    result = invoke("derive", str(path), "--out", str(tmp_path / "out.model"))
    assert result.exit_code == 3, result.output
    assert result.stderr == "error: ideal files: line 1: ring x=1000000 y=1 has 1000000 monomials of bidegree (1, 1), more than 200000\n"
    assert not (tmp_path / "out.model").exists()


@pytest.mark.parametrize("count", ["0", "9" * 5000], ids=["zero", "past-digit-limit"])
def test_derive_ring_header_count_error_names_its_line(tmp_path, count):
    path = _stage(tmp_path, "oguiso")
    (tmp_path / "oguiso_forms.ideal").write_text(f"# forms\nring x={count} y=3\nx0*y0\n")
    result = invoke("derive", str(path), "--out", str(tmp_path / "out.model"))
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith("error: ideal files: line 2: ")
    assert len(result.stderr.splitlines()) == 1
    assert not (tmp_path / "out.model").exists()


def test_derive_zero_generator_names_its_line(tmp_path):
    path = _stage(tmp_path, "oguiso")
    (tmp_path / "oguiso_forms.ideal").write_text("# forms\nring x=4 y=4\nx0*y0\nx0*y1 - x0*y1\n")
    result = invoke("derive", str(path), "--out", str(tmp_path / "out.model"))
    assert result.exit_code == 3, result.output
    assert result.stderr == "error: ideal files: line 4: zero generator\n"
    assert not (tmp_path / "out.model").exists()


def test_sweep_cli(tmp_path):
    out = tmp_path / "sweep.csv"
    result = invoke("sweep", str(bundled_model_path("example41")), "--out", str(out))
    assert result.exit_code == 0, result.output
    assert "slope =" in result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "m,p,q,h0,l1_approx,word_len,skipped"
    assert len(lines) == 14


@pytest.mark.parametrize("command", ["sweep", "derive"])
def test_unwritable_out_is_one_error_line(command, tmp_path):
    target = tmp_path / "missing" / "out"
    result = invoke(command, str(_stage(tmp_path, "oguiso")), "--out", str(target))
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(
        result.exception
    )
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ") and len(result.stderr.splitlines()) == 1, result.stderr


def test_unwritable_out_skips_the_sweep(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(growth, "sweep", lambda *args, **kw: calls.append(args))
    target = tmp_path / "missing" / "s.csv"
    result = invoke("sweep", str(bundled_model_path("oguiso")), "--out", str(target))
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
def test_failed_sweep_keeps_existing_csv(tmp_path, args, message):
    out = tmp_path / "sweep.csv"
    out.write_text("old\n")
    result = invoke("sweep", str(bundled_model_path("oguiso")), "--out", str(out), *args)
    assert result.exit_code == 2
    assert result.stderr == f"error: {message}\n"
    assert out.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [out]


def test_sweep_out_follows_a_symlink(tmp_path):
    expected = tmp_path / "expected.csv"
    assert invoke("sweep", str(bundled_model_path("example41")), "--out", str(expected)).exit_code == 0
    (tmp_path / "old.csv").write_text("old\n")
    for name, target in (("link.csv", "old.csv"), ("dangling.csv", "new.csv")):
        link = tmp_path / name
        link.symlink_to(target)
        result = invoke("sweep", str(bundled_model_path("example41")), "--out", str(link))
        assert result.exit_code == 0, result.output
        assert link.is_symlink() and os.readlink(link) == target
        assert (tmp_path / target).read_bytes() == expected.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dangling.csv", "expected.csv", "link.csv", "new.csv", "old.csv"
    ]


def test_derive_in_place_follows_a_symlink(tmp_path):
    doc = json.loads(bundled_model_path("oguiso").read_text())
    del doc["ideal_files"], doc["provenance"]
    real = tmp_path / "oguiso.model"
    real.write_text(json.dumps(doc))
    link = tmp_path / "link.model"
    link.symlink_to(real.name)
    result = invoke("derive", str(link))
    assert result.exit_code == 0, result.output
    assert link.is_symlink()
    assert load_model(real).provenance == {"triform": "chow", "c2form": "chow"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.model", "oguiso.model"]


def test_derive_reads_the_ideal_files_beside_a_symlinked_model(tmp_path):
    # the link lives in another directory than the model and its ideal file
    path = _stage(tmp_path, "oguiso")
    (tmp_path / "elsewhere").mkdir()
    link = tmp_path / "elsewhere" / "o.model"
    link.symlink_to(os.path.join("..", path.name))
    result = invoke("derive", str(link))
    assert result.exit_code == 0, result.output
    assert "triform = (2, 6, 6, 2)  c2form = (44, 44)  [chow+hilbert-fit]" in result.stdout
    assert link.is_symlink()
    assert list((tmp_path / "elsewhere").iterdir()) == [link]


def test_sweep_out_keeps_the_permission_bits(tmp_path):
    out = tmp_path / "private.csv"
    out.write_text("old\n")
    out.chmod(0o600)
    result = invoke("sweep", str(bundled_model_path("example41")), "--out", str(out))
    assert result.exit_code == 0, result.output
    assert out.stat().st_mode & 0o777 == 0o600
    assert out.read_text().startswith("m,p,q,h0,")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_sweep_out_writes_a_fifo_in_place(tmp_path):
    expected = tmp_path / "expected.csv"
    assert invoke("sweep", str(bundled_model_path("example41")), "--out", str(expected)).exit_code == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []

    def drain():
        with open(fifo, "rb") as fp:
            received.append(fp.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    result = invoke("sweep", str(bundled_model_path("example41")), "--out", str(fifo))
    reader.join(timeout=30)
    assert result.exit_code == 0, result.output
    assert received == [expected.read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["expected.csv", "fifo"]


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_samples_below_one(samples):
    result = invoke("verify", str(bundled_model_path("example41")), "--samples", samples)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: --samples must be at least 1, got {samples}\n"


def test_sweep_rejects_non_ample():
    result = invoke("sweep", str(bundled_model_path("example41")), "--ample", "0,1")
    assert result.exit_code == 2


def test_reduce_cli():
    # "--" keeps the leading-minus class from being read as a flag
    result = invoke("reduce", str(bundled_model_path("example41")), "--", "-1,8")
    assert result.exit_code == 0
    assert "word = [tau2]" in result.output
    assert "reduced = 1,0" in result.output


def test_h0_cli():
    result = invoke("h0", str(bundled_model_path("example41")), "1,1")
    assert result.exit_code == 0
    assert "h0 = 16" in result.output
    assert "word = []" in result.output

    result = invoke("h0", str(bundled_model_path("example41")), "--", "-1,8")
    assert "h0 = 4" in result.output


# the movcone modules each command loads beyond the package, cli, cones,
# exact and models
_COMMAND_MODULES = {
    "h0": ["riemann_roch"],
    "reduce": [],
    "sweep": ["growth", "riemann_roch"],
    "verify": ["properties", "riemann_roch"],
    "derive": ["chow", "hilbert"],
}


def _run_child(code, *argv, flags=()):
    """Run code with argv in a fresh interpreter, started with flags, that
    imports the same movcone as this process; return its stdout after
    asserting a zero exit."""
    path = [str(Path(movcone.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    cmd = [sys.executable, *flags, "-c", code, *argv]
    result = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("argv", [["--help"], ["h0", "--help"]], ids=["main", "h0"])
def test_help_without_docstrings(argv):
    """Under python -OO the docstrings are gone; help still prints its usage
    line and option table."""
    out = _run_child("from movcone.cli import main; main()", *argv, flags=("-OO",))
    assert out.startswith("Usage: movcone")


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
    """A cold command loads neither numpy, click, dataclasses nor inspect,
    and of movcone only the modules it runs: the oracles for derive, growth
    for sweep, the property suites for verify."""
    argv = [str(bundled_model_path(a)) if a in BUNDLED else a.format(tmp=tmp_path) for a in args]
    code = (
        "import sys, movcone\n"
        "from movcone.cli import main\n"
        f"try:\n    main({argv!r})\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
        "assert 'numpy' not in sys.modules\n"
        "assert 'click' not in sys.modules\n"
        "assert 'dataclasses' not in sys.modules\n"
        "assert 'inspect' not in sys.modules\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('movcone.'))))\n"
    )
    *output, loaded = _run_child(code).splitlines()
    assert output
    base = ["cli", "cones", "exact", "models"]
    assert loaded.split() == sorted(f"movcone.{m}" for m in base + _COMMAND_MODULES[args[0]])


def test_package_exports_resolve_lazily():
    """`import movcone` loads no submodule; every name in __all__ resolves to
    its module's object, is listed by dir() and comes with a star import."""
    code = (
        "import sys, movcone\n"
        "assert not [m for m in sys.modules if m.startswith('movcone.')]\n"
        "listed = dir(movcone)\n"
        "for name in movcone.__all__:\n"
        "    obj = getattr(movcone, name)\n"
        "    assert name in listed, name\n"
        "    assert getattr(sys.modules[obj.__module__], name) is obj, name\n"
        "assert movcone.hilbert is sys.modules['movcone.hilbert']\n"
        "namespace = {}\n"
        "exec('from movcone import *', namespace)\n"
        "assert set(movcone.__all__) <= set(namespace)\n"
        "try:\n    movcone.no_such_name\n"
        "except AttributeError as exc:\n    print(exc)\n"
    )
    assert _run_child(code) == "module 'movcone' has no attribute 'no_such_name'\n"
    assert len(movcone.__all__) == len(set(movcone.__all__))


def test_interrupt_prints_aborted(tmp_path, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(growth, "sweep", interrupt)
    out = tmp_path / "s.csv"
    result = invoke("sweep", str(bundled_model_path("oguiso")), "--out", str(out))
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "\nAborted!\n"
    assert list(tmp_path.iterdir()) == []


def test_h0_outside_cone():
    result = invoke("h0", str(bundled_model_path("example41")), "--", "-1,0")
    assert result.exit_code == 2


def test_h0_outside_the_nef_chamber_is_one_error_line():
    # (-2, 8) is movable on the sigma-only model but reduces outside the nef cone
    result = invoke("h0", str(bundled_model_path("synthetic-bminus-empty")), "--", "-2,8")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: chamber covering not implemented: [-2, 8] is not nef\n"


def test_class_parse_error():
    result = invoke("h0", str(bundled_model_path("example41")), "1;1")
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
def test_usage_error_is_one_parse_error_line(args):
    argv = [str(bundled_model_path(a)) if a in BUNDLED else a for a in args]
    result = invoke(*argv)
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and len(result.stderr.splitlines()) == 1, result.stderr


def test_help_and_negative_option_values_still_parse(tmp_path):
    for args in (["--help"], ["h0", "--help"]):
        result = invoke(*args)
        assert result.exit_code == 0 and result.stdout.startswith("Usage: "), result.output
    out = tmp_path / "s.csv"
    result = invoke("sweep", str(bundled_model_path("example41")), "--dir", "-1,8", "--out", str(out))
    assert result.exit_code == 0, result.output
    assert out.read_text().splitlines()[1].startswith("256,-251,2053,")
    out.unlink()
    result = invoke("sweep", str(bundled_model_path("example41")), "--dir=-1,8", f"--out={out}")
    assert result.exit_code == 0, result.output
    assert out.read_text().splitlines()[1].startswith("256,-251,2053,")


# example41, valid but for a name byte that is Latin-1 and not UTF-8
_LATIN1_NAME = bundled_model_path("example41").read_bytes().replace(b'"example41"', b'"example41\xe9"')

# example41 with involutions that fix H1 and H2 but turn the movable cone away
# from the nef cone; sigma keeps lambda = 23 + 4*sqrt(33)
_REVERSED = (("tau1", "tau2"), ([1, -6, 0, -1], [-1, 0, -8, 1]))


# a field value that _mutated drops from the model
_DROP = object()

# example41 with one involution only, with sigma beside both, and with no map
_ONE_INVOLUTION = ("tau2", _DROP)
_TAUS_AND_SIGMA = ("sigma", [-1, -6, 8, 47])
_NO_MAP = (("tau1", "tau2"), (_DROP, _DROP))


def _mutated(tmp_path, name, field, value):
    """A bundled model with field set to value, or each field of a tuple to
    the matching entry of value, a field set to _DROP left out; without a
    model name, the bytes value."""
    path = tmp_path / "mutated.model"
    if name is None:
        path.write_bytes(value)
        return path
    doc = json.loads(bundled_model_path(name).read_text())
    doc.update(zip(field, value) if isinstance(field, tuple) else [(field, value)])
    path.write_text(json.dumps({k: v for k, v in doc.items() if v is not _DROP}))
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
        # files whose maps are well typed but not tau1 and tau2, or sigma alone
        pytest.param("example41", *_ONE_INVOLUTION, 2, id="example41-one-involution-2"),
        pytest.param("example41", *_TAUS_AND_SIGMA, 2, id="example41-taus-and-sigma-2"),
        pytest.param("example41", *_NO_MAP, 2, id="example41-no-map-2"),
        # files that json.loads or UTF-8 decoding reject with other errors
        pytest.param(None, None, _LATIN1_NAME, 3, id="not-utf8-3"),
        pytest.param(None, None, b"[" * 200_000 + b"]" * 200_000, 3, id="nested-200000-deep-3"),
        pytest.param(None, None, b"[" + b"7" * 5000 + b"]", 3, id="5000-digit-integer-3"),
    ],
)
@pytest.mark.parametrize("command", ["h0", "reduce", "sweep"])
def test_invalid_model_exits_with_one_error_line(tmp_path, name, field, value, code, command):
    path = _mutated(tmp_path, name, field, value)
    args = ["--out", str(tmp_path / "s.csv")] if command == "sweep" else ["1,1"]
    result = invoke(command, str(path), *args)
    assert result.exit_code == code, result.output
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ")


def test_verify_rejects_involutions_reversing_the_cone(tmp_path):
    result = invoke("verify", str(_mutated(tmp_path, "example41", *_REVERSED)))
    assert result.exit_code == 2
    assert result.stdout == (
        "FAIL model-invariants: nef1: nef generator lies outside the open movable cone of sigma\n"
        "FAIL model-invariants: nef2: nef generator lies outside the open movable cone of sigma\n"
    )


def test_verify_rejects_one_involution(tmp_path):
    result = invoke("verify", str(_mutated(tmp_path, "example41", *_ONE_INVOLUTION)))
    assert result.exit_code == 2
    assert result.stdout == "FAIL model-invariants: tau1 and tau2 must be given together\n"
    assert result.stderr == ""


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
        result = invoke(command, str(path), *args)
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
        result = invoke(*args)
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(
        result.exception
    )
    assert result.exit_code in (0, 2, 3), result.output
    if result.exit_code:
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.startswith("error: "), result.stderr

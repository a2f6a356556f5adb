"""The CLI byte contract: a fixed list of commands on each bundled model,
each rendered to one text file under tests/golden/ that holds its exit code,
stdout, stderr and the CSV it left behind.  test_golden.py compares the
current code with those files.

The golden files change only through this script.  From the repository root,
`PYTHONPATH=src python tests/golden_cli.py` rewrites every file whose
rendering differs and prints its name.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from cli_runner import invoke
from movcone.models import bundled_model_path

GOLDEN = Path(__file__).parent / "golden"
MODELS = ("example41", "oguiso", "synthetic-bminus-empty")
COMMANDS = {
    "verify": ["verify"],
    "verify-samples40-seed3": ["verify", "--samples", "40", "--seed", "3"],
    "sweep-r1": ["sweep", "--ray", "r1"],
    "sweep-r2": ["sweep", "--ray", "r2"],
    "sweep-dir": ["sweep", "--dir", "1,0"],
    "sweep-mmax": ["sweep", "--mmax", str(1 << 60)],
    "h0": ["h0", "3,2"],
    "reduce": ["reduce", "--", "-1,8"],
}
CSV = "sweep.csv"  # sweep's default --out
CASES = [(model, name) for model in MODELS for name in COMMANDS]


def golden_path(model: str, name: str) -> Path:
    return GOLDEN / f"{model}.{name}.txt"


def _section(title: str, data: bytes) -> str:
    text = data.decode()
    # the byte count tells a missing final newline from the one added here
    return f"--- {title}, {len(data)} bytes\n{text}" + ("\n" if text and not text.endswith("\n") else "")


def render(model: str, name: str) -> str:
    """Run one command in a fresh working directory and render its outputs."""
    command, *options = COMMANDS[name]
    argv = [command, str(bundled_model_path(model)), *options]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            result = invoke(*argv)
            csv = Path(CSV).read_bytes() if Path(CSV).exists() else None
        finally:
            os.chdir(cwd)
    return (
        f"$ movcone {command} {model}.model {' '.join(options)}\n"
        f"exit {result.exit_code}\n"
        + _section("stdout", result.stdout.encode())
        + _section("stderr", result.stderr.encode())
        + (_section(CSV, csv) if csv is not None else f"--- {CSV} absent\n")
    )


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for model, name in CASES:
        path, text = golden_path(model, name), render(model, name)
        if not path.exists() or path.read_bytes() != text.encode():
            path.write_bytes(text.encode())
            print(f"wrote {path}")

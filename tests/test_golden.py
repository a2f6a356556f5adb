import hashlib
import io
import json
from pathlib import Path

import pytest

from golden_cli import CASES, golden_path, render
from movcone.cones import DivisorClass
from movcone.growth import geometric_grid, sweep, write_csv

BENCH_GOLDEN = json.loads((Path(__file__).parents[1] / "bench" / "golden.json").read_text())
GRIDS = {"crit4": geometric_grid(256, 1 << 20), "deep": geometric_grid(256, 1 << 200)}


@pytest.mark.parametrize("model, name", CASES, ids=[f"{m}.{n}" for m, n in CASES])
def test_cli_output_matches_golden(model, name):
    """Exit code, stdout, stderr and CSV bytes equal the committed rendering;
    regenerate with tests/golden_cli.py when a change is intended."""
    assert render(model, name) == golden_path(model, name).read_text()


@pytest.mark.parametrize("job", sorted(BENCH_GOLDEN["sweep_csv"]))
def test_sweep_csv_matches_bench_digest(job, request):
    """The r1 sweeps with ample shift (5,5) reproduce bench/golden.json."""
    model, grid = job.split(".")
    dyn = request.getfixturevalue({"example41": "ex41", "oguiso": "oguiso"}[model])
    records = sweep(dyn.model, dyn.sigma, dyn.pi, DivisorClass.from_ints(5, 5), GRIDS[grid])
    buf = io.StringIO()
    write_csv(records, buf)
    expected = BENCH_GOLDEN["sweep_csv"][job]
    assert len(records) == expected["rows"]
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == expected["sha256"]

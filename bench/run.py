"""Layered benchmark for movcone.

    python3 bench/run.py --workload point-queries --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; movcone is imported from its src/.  With
--trace 0 the run is timed and prints the end-to-end metrics; with --trace 1
it records spans around every call into movcone and prints the per-layer
metrics.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the details (sample
counts, tail percentiles, reported-only values, environment).  See
bench/README.md for what each workload and metric measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from time import perf_counter, perf_counter_ns

from oracle import MODELS, ROOT
from prepare import SetupError, child_env, import_movcone, prepare
from tracing import REFERENCE_S, Tracer, geomean, mean, median, reference_s, tail
from workloads import WORKLOADS, matrix_shapes, replay_layers

SETUP_REPEATS = 5  # fresh interpreters per run; setup_s is their median
PREPARE_PER_ROUND = 3  # traced set-ups per traced round
IMPORT_REPEATS = 3
LAYERS = ("bench", "exact", "cones", "riemann_roch", "growth", "hilbert", "chow", "models", "cli")
CLI_COMMANDS = ("h0", "reduce", "sweep", "verify", "derive")
SWEEP_JOBS = ("example41.deep", "oguiso.deep", "example41.crit4")
SPLIT_STEPS = ("floor_class", "area_coordinate", "in_open_movable", "h0_movable")
WORD_LEN_BUCKETS = 21  # cones.word_len.0 .. .20, then .over20

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("units_per_s", "1/s"),
)

PER_LAYER = (
    [("exact.mul_ns", "ns"), ("exact.compare_ns", "ns"), ("exact.floor_ns", "ns")]
    + [(f"cones.{f}_us", "us") for f in ("reduce", "in_open_movable", "area_coordinate")]
    + [(f"cones.{f}_us", "us") for f in ("eigen_sigma", "fundamental_domain")]
    + [("cones.word_len_mean", "count"), ("cones.word_len_max", "count")]
    + [(f"cones.word_len.{n}", "count") for n in range(WORD_LEN_BUCKETS)]
    + [("cones.word_len.over20", "count")]
    + [("riemann_roch.h0_movable_us", "us"), ("riemann_roch.chi_nef_us", "us")]
    + [(f"growth.sweep_ms.{job}", "ms") for job in SWEEP_JOBS]
    + [("growth.write_csv_ms", "ms"), ("growth.estimate_exponent_us", "us")]
    + [(f"growth.split.{step}_ms", "ms") for step in SPLIT_STEPS]
    + [("hilbert.load_ideal_ms", "ms")]
    + [(f"hilbert.dim_ms.{m}.{a}x{b}", "ms") for m in MODELS for a in range(1, 5) for b in range(1, 5)]
    + [(f"hilbert.matrix_{k}.{m}", "count") for k in ("cells", "rows", "cols") for m in MODELS]
    + [("hilbert.fit_chi_us", "us"), ("chow.intersection_data_ms", "ms"), ("models.load_model_ms", "ms")]
    + [("cli.import_s", "s")]
    + [(f"cli.{c}_s", "s") for c in CLI_COMMANDS]
    + [("work.ops", "count"), ("work.units", "count")]
    + [(f"self_ms.{layer}", "ms") for layer in LAYERS]
    + [("trace.overhead_ms", "ms"), ("trace.overhead_pct", "%"), ("trace.spans", "count")]
)


class Log:
    """Failure messages to stderr, at most `limit` of them per run."""

    def __init__(self, limit: int = 20):
        self.limit = limit
        self.count = 0

    def __call__(self, message: str) -> None:
        self.count += 1
        if self.count <= self.limit:
            print(f"bench: {message}", file=sys.stderr)


def measure_setup() -> tuple[list[float], list[float]]:
    """Full set-up in fresh interpreters, each timed from inside the child;
    returns (scaled, raw) seconds."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_s()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "prepare.py")],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        raw.append(float(proc.stdout.split()[-1]))
        scaled.append(raw[-1] * REFERENCE_S / ((before + reference_s()) / 2))
    return scaled, raw


def measure_import() -> float:
    code = "import time; t = time.perf_counter(); import movcone; print(repr(time.perf_counter() - t))"
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SetupError(f"cold import failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return median(times)


def environment() -> dict:
    env = {"python": platform.python_version(), "nproc": os.cpu_count(), "platform": platform.platform()}
    for pkg in ("numpy", "mpmath", "click"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = None
    env["cpu"] = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fp:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fp if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return env


def timed_run(w, seconds: float):
    """Whole passes until `seconds` have passed; each pass's times are scaled
    by the reference loop timed around it."""
    tr = Tracer(False)
    ops: list = []
    scales: list[float] = []
    rates: list[float] = []  # scaled units per second of each pass
    raw_rates: list[float] = []
    kinds: dict[str, list[float]] = {}  # scaled latencies in microseconds
    raw_kinds: dict[str, list[float]] = {}
    units = wall_ns = 0
    start = perf_counter()
    after = reference_s()
    while not rates or perf_counter() - start < seconds:
        inputs = w.inputs()
        first = len(ops)
        before = after
        t0 = perf_counter_ns()
        done = w.run(inputs, tr, ops)
        ns = perf_counter_ns() - t0
        after = reference_s()
        scale = REFERENCE_S / ((before + after) / 2)
        for op in ops[first:]:
            kinds.setdefault(op.kind, []).append(op.ns * scale / 1e3)
            raw_kinds.setdefault(op.kind, []).append(op.ns / 1e3)
        scales.append(scale)
        rates.append(done / (ns * scale / 1e9))
        raw_rates.append(done / (ns / 1e9))
        units += done
        wall_ns += ns

    per_kind = {}
    for kind, lat in kinds.items():
        value, pct = tail(lat)
        per_kind[kind] = {
            "n": len(lat), "p50_us": median(lat), "tail_us": value, "tail_pct": pct,
            "raw_p50_us": median(raw_kinds[kind]),
        }
    metrics = {
        "peak_rss_mb": w.peak_rss_mb(),
        "op_p50_us": geomean([k["p50_us"] for k in per_kind.values()]),
        "op_tail_us": geomean([k["tail_us"] for k in per_kind.values()]),
        "units_per_s": median(rates),
    }
    detail = {
        "passes": len(rates), "measured_s": wall_ns / 1e9, "units": units, "kinds": per_kind,
        "raw_units_per_s": median(raw_rates), "speed_scale": median(scales),
    }
    return ops, (0, 0), metrics, detail


def traced_run(w, seconds: float, prepared, log):
    """Rounds of fixed work, each pass run once untraced and once traced in
    alternating order; the difference is the tracing overhead.  Counts come
    from the first round only, so they repeat exactly for a given seed."""
    tr, plain = Tracer(True), Tracer(False)
    ops: list = []
    replayed = [0, 0]  # classes replayed, replays that raised
    rounds = plain_ns = traced_ns = 0
    counts = None
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        tr.op = None
        for _ in range(PREPARE_PER_ROUND):
            with tr.span("bench.prepare"):
                prepare(tr)
        inputs = [w.inputs() for _ in range(w.traced_passes)]
        traced_ops: list = []
        units = 0
        for i, inp in enumerate(inputs):
            for traced in (False, True) if (rounds + i) % 2 == 0 else (True, False):
                w.harvested = []
                t0 = perf_counter_ns()
                if traced:
                    with tr.span("bench.pass", key=i):
                        units += w.run(inp, tr, traced_ops)
                    traced_ns += perf_counter_ns() - t0
                    if i == 0:
                        harvest = w.harvested
                else:
                    w.run(inp, plain, ops)
                    plain_ns += perf_counter_ns() - t0
        ops += traced_ops
        if counts is None:
            counts = {"ops": traced_ops, "units": units}
        tr.op = None
        replayed[0] += len(harvest)
        replayed[1] += replay_layers(tr, prepared, harvest, log)
        w.traced_extras(tr)
        rounds += 1

    shapes = {m: matrix_shapes(prepared[m].ideal, grid) for m, grid in w.hilbert_work()}
    metrics = layer_metrics(tr, rounds, counts, shapes)
    metrics["cli.import_s"] = measure_import()
    metrics["trace.overhead_ms"] = (traced_ns - plain_ns) / rounds / 1e6
    metrics["trace.overhead_pct"] = 100 * (traced_ns - plain_ns) / plain_ns
    metrics["trace.spans"] = len(tr.spans) / rounds
    detail = {"rounds": rounds, "matrix_shapes": shapes, "trace_file": write_trace(tr, w)}
    return ops, replayed, metrics, detail


def layer_metrics(tr, rounds: int, counts, shapes) -> dict:
    def per_call(name, scale, key="*"):
        return mean(tr.durations(name, key)) / scale

    def per_round(name, scale, key="*"):
        return sum(tr.durations(name, key)) / rounds / scale

    m = {
        "exact.mul_ns": per_call("exact.QuadNum.mul", 1),
        "exact.compare_ns": per_call("exact.QuadNum.compare", 1),
        "exact.floor_ns": per_call("exact.QuadNum.floor", 1),
        "cones.reduce_us": per_call("cones.reduce_to_domain", 1e3),
        "cones.in_open_movable_us": per_call("cones.in_open_movable", 1e3, None),
        "cones.area_coordinate_us": per_call("cones.area_coordinate", 1e3, None),
        "cones.eigen_sigma_us": per_call("cones.eigen_sigma", 1e3),
        "cones.fundamental_domain_us": per_call("cones.fundamental_domain", 1e3),
        "riemann_roch.h0_movable_us": per_call("riemann_roch.h0_movable", 1e3),
        "riemann_roch.chi_nef_us": per_call("riemann_roch.chi_nef", 1e3),
        "growth.write_csv_ms": per_call("growth.write_csv", 1e6),
        "growth.estimate_exponent_us": per_call("growth.estimate_exponent", 1e3),
        "hilbert.load_ideal_ms": per_call("hilbert.load_ideal_file", 1e6),
        "hilbert.fit_chi_us": per_call("hilbert.fit_chi", 1e3),
        "chow.intersection_data_ms": per_call("chow.intersection_data", 1e6),
        "models.load_model_ms": per_call("models.load_model", 1e6),
    }
    for job in SWEEP_JOBS:
        m[f"growth.sweep_ms.{job}"] = per_call("growth.sweep", 1e6, job)
    for step in SPLIT_STEPS:
        name = {"floor_class": "growth.", "h0_movable": "riemann_roch."}.get(step, "cones.") + step
        m[f"growth.split.{step}_ms"] = per_round(name, 1e6, "split")
    for model in MODELS:
        for a in range(1, 5):
            for b in range(1, 5):
                key = f"{model}.{a}x{b}"
                m[f"hilbert.dim_ms.{key}"] = per_call("hilbert.hilbert_dim", 1e6, key)
    for c in CLI_COMMANDS:
        lat = tr.durations(f"cli.{c}")
        m[f"cli.{c}_s"] = median(lat) / 1e9 if lat else 0.0

    words = [n for op in counts["ops"] for n in op.words]
    m["cones.word_len_mean"] = mean(words)
    m["cones.word_len_max"] = max(words, default=0)
    for n in range(WORD_LEN_BUCKETS):
        m[f"cones.word_len.{n}"] = words.count(n)
    m["cones.word_len.over20"] = sum(1 for n in words if n >= WORD_LEN_BUCKETS)
    m["work.ops"] = len(counts["ops"])
    m["work.units"] = counts["units"]

    for model in MODELS:
        sizes = shapes.get(model, {}).values()
        m[f"hilbert.matrix_cells.{model}"] = sum(rows * cols for rows, cols in sizes)
        m[f"hilbert.matrix_rows.{model}"] = sum(rows for rows, _ in sizes)
        m[f"hilbert.matrix_cols.{model}"] = sum(cols for _, cols in sizes)

    self_ns = tr.self_time_by_layer()
    for layer in LAYERS:
        m[f"self_ms.{layer}"] = self_ns.get(layer, 0) / rounds / 1e6
    return m


def write_trace(tr, w) -> str:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{w.name}.json"
    path.write_text(json.dumps({"workload": w.name, "spans": tr.dump()}))
    return path.relative_to(ROOT).as_posix()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # One CPU for the benchmark and every child it starts, so the reference
    # loop runs where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    try:
        import_movcone()
        setup, raw_setup = measure_setup() if args.trace == 0 else ([], [])
        prepared = prepare(Tracer(False))
        log = Log()
        w = WORKLOADS[args.workload](prepared, args.seed, log)
        try:
            if args.trace:
                ops, replayed, metrics, detail = traced_run(w, args.seconds, prepared, log)
                specs = PER_LAYER
            else:
                ops, replayed, metrics, detail = timed_run(w, args.seconds)
                metrics["setup_s"] = median(setup)
                specs = END_TO_END
        finally:
            w.close()
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    attempted = len(ops) + replayed[0]
    failed = sum(not op.ok for op in ops) + replayed[1]
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace, unit=w.units,
        failed_ops_ratio=failed / attempted, setup_samples_s=setup, raw_setup_samples_s=raw_setup,
        values=w.values, env=environment(),
    )
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

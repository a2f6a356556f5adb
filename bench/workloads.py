"""The four workloads.

Each workload does one pass of fixed work per run() call, timing every
operation it issues and checking every answer against oracle.py.  inputs()
draws the next pass's inputs from the seeded generator outside the timing.
All load comes from this one process, serially (one closed-loop client).
"""

from __future__ import annotations

import hashlib
import io
import json
import operator
import os
import random
import re
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from math import comb
from time import perf_counter_ns

import oracle
from oracle import DATA, FIT_REFERENCE, GOLDEN, MODELS, ROOT
from prepare import child_env

FAILED = object()


@dataclass
class Op:
    kind: str
    ns: int
    ok: bool = True
    words: tuple = ()  # lengths of the reduction words this op returned


class Workload:
    name = ""
    units = "ops"  # what run() counts toward units_per_s
    traced_passes = 1  # passes per round of the traced run

    def __init__(self, prepared, seed: int, log):
        self.prepared = prepared
        self.rng = random.Random(seed)
        self.log = log
        self.harvested: list[tuple[str, tuple[int, int]]] = []  # classes for the layer replays
        self.values: dict[str, float] = {}  # reported, never gated

    def inputs(self):
        raise NotImplementedError

    def run(self, inputs, tr, ops: list[Op]) -> int:
        raise NotImplementedError

    def hilbert_work(self) -> list[tuple[str, list[tuple[int, int]]]]:
        """(model, bidegrees) whose rank matrices one pass builds."""
        return []

    def traced_extras(self, tr) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        pass

    def attempt(self, ops: list[Op], kind: str, tr, fn):
        """Run fn() as one timed operation; any exception counts as a failure."""
        tr.op = len(ops)
        t0 = perf_counter_ns()
        try:
            out = fn()
        except Exception as exc:  # every failure is counted and reported, never skipped
            ops.append(Op(kind, perf_counter_ns() - t0, ok=False))
            self.log(f"{kind}: {exc!r}")
            return FAILED
        ops.append(Op(kind, perf_counter_ns() - t0))
        return out

    def fail(self, op: Op, problem: str) -> None:
        op.ok = False
        self.log(f"{op.kind}: {problem}")


class PointQueries(Workload):
    """h0_movable on seeded classes; the answer is chi of the nef base class."""

    name = "point-queries"
    units = "queries"
    BATCH = 50  # queries per pass, so the reference loop tracks CPU speed closely
    traced_passes = 20

    def __init__(self, prepared, seed, log):
        super().__init__(prepared, seed, log)
        self.lattices = {m: oracle.Lattice(m) for m in MODELS}

    def inputs(self):
        return oracle.point_queries(self.rng, self.lattices, self.BATCH)

    def run(self, queries, tr, ops):
        from movcone import DivisorClass
        from movcone.riemann_roch import h0_movable

        for q in queries:
            pm = self.prepared[q.model]
            D = DivisorClass.from_ints(*q.cls)
            out = self.attempt(
                ops, "h0_movable", tr,
                lambda: tr.call("riemann_roch.h0_movable", h0_movable, pm.model, pm.s, pm.pi, D),
            )
            if out is FAILED:
                continue
            count, word = out
            lat = self.lattices[q.model]
            ops[-1].words = (len(word),)
            if count != q.expected:
                self.fail(ops[-1], f"h0{q.cls} = {count}, expected chi{q.base} = {q.expected}")
            elif not set(word) <= set(lat.maps) or lat.apply_word(word, q.cls) != q.base:
                self.fail(ops[-1], f"word {word} does not take {q.cls} to {q.base}")
            self.harvested.append((q.model, q.cls))
        return len(queries)


def _grid(max_exp: int) -> list[int]:
    return [1 << k for k in range(8, max_exp + 1)]


class DeepSweep(Workload):
    """growth.sweep along r1 with A = (5,5) to m = 2^200 on both models, plus
    the criterion-4 grid 2^8..2^20 on example41; each job also writes its CSV
    into memory and fits the exponent."""

    name = "deep-sweep"
    units = "rows"
    JOBS = (("example41", "deep", 200), ("oguiso", "deep", 200), ("example41", "crit4", 20))

    def inputs(self):
        return self.rng.sample(self.JOBS, len(self.JOBS))

    def run(self, jobs, tr, ops):
        from movcone import DivisorClass, growth

        rows = 0
        for model, tag, max_exp in jobs:
            pm = self.prepared[model]
            job = f"{model}.{tag}"
            ms = _grid(max_exp)
            ample = DivisorClass.from_ints(5, 5)

            def one_job():
                with tr.span("bench.sweep_job", key=job):
                    records = tr.call("growth.sweep", growth.sweep, pm.model, pm.s, pm.pi, ample, ms, key=job)
                    buf = io.StringIO()
                    tr.call("growth.write_csv", growth.write_csv, records, buf, key=job)
                    fit = tr.call("growth.estimate_exponent", growth.estimate_exponent, records, key=job)
                return records, buf.getvalue(), fit

            out = self.attempt(ops, f"sweep:{job}", tr, one_job)
            if out is FAILED:
                continue
            records, text, fit = out
            live = [r for r in records if not r.skipped]
            ops[-1].words = tuple(r.word_length for r in live)
            gold = GOLDEN[job]
            digest = hashlib.sha256(text.encode()).hexdigest()
            if len(records) != gold["rows"] or digest != gold["sha256"]:
                self.fail(ops[-1], f"CSV has {len(records)} rows, sha256 {digest}; golden {gold}")
            self.values[f"slope.{job}"] = fit.slope
            self.harvested += [(model, r.floored.integer_coords()) for r in live]
            rows += len(records)
        return rows

    def traced_extras(self, tr):
        """Replay the four per-row steps of growth.sweep on the same m values
        to split its time (spans keyed "split")."""
        from movcone import DivisorClass, cones, growth
        from movcone.riemann_roch import h0_movable

        for model, tag, max_exp in self.JOBS:
            pm = self.prepared[model]
            ray, ample = pm.s.ray1, DivisorClass.from_ints(5, 5)
            for m in _grid(max_exp):
                with tr.span("bench.sweep_row", key=f"{model}.{tag}"):
                    floored = tr.call("growth.floor_class", growth.floor_class, m, ray, ample, key="split")
                    real = DivisorClass(ray.p * m + ample.p, ray.q * m + ample.q)
                    tr.call("cones.area_coordinate", cones.area_coordinate, real, pm.s, key="split")
                    if tr.call("cones.in_open_movable", cones.in_open_movable, floored, pm.s, key="split"):
                        tr.call(
                            "riemann_roch.h0_movable", h0_movable, pm.model, pm.s, pm.pi, floored, key="split"
                        )


class HilbertFit(Workload):
    """hilbert_dim over default_sample_grid(4) and fit_chi for both bundled
    ideals, plus chow.intersection_data on oguiso."""

    name = "hilbert-fit"
    units = "calls"

    def __init__(self, prepared, seed, log):
        super().__init__(prepared, seed, log)
        from movcone import hilbert

        self.grid = hilbert.default_sample_grid(4)

    def inputs(self):
        return [(m, self.rng.sample(self.grid, len(self.grid))) for m in self.rng.sample(MODELS, 2)]

    def hilbert_work(self):
        return [(m, self.grid) for m in MODELS]

    def run(self, plan, tr, ops):
        from movcone import chow, hilbert

        fits = {}
        for model, grid in plan:
            pm = self.prepared[model]
            ref = FIT_REFERENCE[model]
            samples = []
            for a, b in grid:
                key = f"{model}.{a}x{b}"
                dim = self.attempt(
                    ops, f"hilbert_dim:{key}", tr,
                    lambda: tr.call("hilbert.hilbert_dim", hilbert.hilbert_dim, pm.ideal, (a, b), key=key),
                )
                if dim is FAILED:
                    continue
                expected = oracle.chi_from(*ref, a, b)
                if dim != expected:
                    self.fail(ops[-1], f"dim = {dim}, expected chi = {expected}")
                samples.append(((a, b), dim))
            fit = self.attempt(
                ops, f"fit_chi:{model}", tr,
                lambda: tr.call("hilbert.fit_chi", hilbert.fit_chi, samples, key=model),
            )
            if fit is not FAILED:
                fits[model] = (fit[0].as_tuple(), fit[1].as_tuple())
                if fits[model] != ref:
                    self.fail(ops[-1], f"fit {fits[model]}, expected {ref}")
        ci = self.prepared["oguiso"].ci
        res = self.attempt(
            ops, "intersection_data:oguiso", tr,
            lambda: tr.call("chow.intersection_data", chow.intersection_data, ci, key="oguiso"),
        )
        if res is not FAILED:
            got = (res[0].as_tuple(), res[1].as_tuple())
            if got != FIT_REFERENCE["oguiso"] or got != fits.get("oguiso"):
                self.fail(ops[-1], f"chow {got}, hilbert fit {fits.get('oguiso')}")
        return len(plan) * (len(self.grid) + 1) + 1


_CLI_ENTRY = "from movcone.cli import main; main()"
_DERIVE_FIRST = re.compile(r"hilbert fit over 9 bidegrees in \d+\.\ds")


def _tree_digest(path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class CliCold(Workload):
    """The movcone CLI in a fresh interpreter per command, one at a time."""

    name = "cli-cold"
    units = "commands"
    traced_passes = 2

    def __init__(self, prepared, seed, log):
        super().__init__(prepared, seed, log)
        self.work = ROOT / ".bench_out" / f"cli-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.rel = self.work.relative_to(ROOT).as_posix()
        self.commands = oracle.cli_commands(self.rel)
        self.env = child_env()
        self.bundled = _tree_digest(DATA)
        self.invoke(["--help"])  # compile bytecode before anything is timed

    def invoke(self, args):
        return subprocess.run(
            [sys.executable, "-c", _CLI_ENTRY, *args],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120,
        )

    def inputs(self):
        return self.rng.sample(list(self.commands), len(self.commands))

    def hilbert_work(self):
        from movcone import hilbert

        return [("oguiso", hilbert.default_sample_grid(3))]

    def run(self, order, tr, ops):
        for name in order:
            args, expected = self.commands[name]
            proc = self.attempt(ops, f"cli:{name}", tr, lambda: tr.call(f"cli.{name}", self.invoke, args))
            if proc is FAILED:
                continue
            try:
                problem = self.check(name, proc, expected, ops[-1])
            except (OSError, ValueError, IndexError, KeyError) as exc:  # malformed output or files
                problem = f"unreadable output: {exc!r}"
            if problem:
                self.fail(ops[-1], problem)
        return len(order)

    def check(self, name, proc, expected, op):
        if proc.returncode != 0:
            return f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
        lines = proc.stdout.splitlines()
        if name in ("h0", "reduce"):
            op.words = (len(lines[0].removeprefix("word = [").removesuffix("]").split()),) if lines else ()
            self.harvested.append(("example41", (1, 1) if name == "h0" else (-1, 8)))
        if expected is not None:
            return None if lines == expected else f"stdout {lines!r}"
        if name == "sweep":
            return self.check_sweep(lines, op)
        return self.check_derive(lines)

    def check_sweep(self, lines, op):
        path = self.work / "sweep.csv"
        if len(lines) != 3 or lines[0] != f"wrote {self.rel}/sweep.csv (13 records)":
            return f"stdout {lines!r}"
        data = path.read_bytes()
        path.unlink()
        gold = GOLDEN["example41.crit4"]["sha256"]
        if hashlib.sha256(data).hexdigest() != gold:
            return "sweep CSV differs from the golden digest"
        self.values["slope.cli.example41.crit4"] = float(lines[1].split()[2])
        rows = [r.split(",") for r in data.decode().splitlines()[1:]]
        op.words = tuple(int(r[5]) for r in rows)
        self.harvested += [("example41", (int(r[1]), int(r[2]))) for r in rows]
        return None

    def check_derive(self, lines):
        path = self.work / "oguiso.model"
        tri, c2 = FIT_REFERENCE["oguiso"]
        want = [f"triform = {tri}  c2form = {c2}  [chow+hilbert-fit]", f"wrote {self.rel}/oguiso.model"]
        if len(lines) != 3 or not _DERIVE_FIRST.fullmatch(lines[0]) or lines[1:] != want:
            return f"stdout {lines!r}"
        doc = json.loads(path.read_text())
        path.unlink()
        if (tuple(doc["triform"]), tuple(doc["c2form"])) != (tri, c2):
            return f"written model has {doc['triform']}/{doc['c2form']}"
        if _tree_digest(DATA) != self.bundled:
            return "a bundled data file changed"
        return None

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PointQueries, DeepSweep, HilbertFit, CliCold)}


def replay_layers(tr, prepared, harvested, log) -> int:
    """Replay exact, cones and riemann_roch calls on the classes a workload
    produced; returns the number of classes whose replay raised."""
    from movcone import DivisorClass, cones
    from movcone.riemann_roch import chi_nef, h0_movable

    failures = 0
    for model, (p, q) in harvested:
        pm = prepared[model]
        D = DivisorClass.from_ints(p, q)
        try:
            with tr.span("bench.replay", key=model):
                a1, a2 = cones.eigen_coords(D, pm.s)
                tr.call("exact.QuadNum.mul", operator.mul, a1, a2)
                tr.call("exact.QuadNum.compare", a1.compare, a2)
                tr.call("exact.QuadNum.floor", a1.floor)
                tr.call("cones.area_coordinate", cones.area_coordinate, D, pm.s)
                if tr.call("cones.in_open_movable", cones.in_open_movable, D, pm.s):
                    _, reduced = tr.call(
                        "cones.reduce_to_domain", cones.reduce_to_domain, pm.model, pm.s, pm.pi, D
                    )
                    tr.call("riemann_roch.chi_nef", chi_nef, pm.model, reduced)
                    tr.call("riemann_roch.h0_movable", h0_movable, pm.model, pm.s, pm.pi, D)
        except Exception as exc:  # counted as a failed operation by the caller
            failures += 1
            log(f"replay {model} {(p, q)}: {exc!r}")
    return failures


def matrix_shapes(ideal, bidegrees) -> dict[str, tuple[int, int]]:
    """Rows x cols of the rank matrix hilbert_dim builds at each bidegree,
    from monomial counts: one row per generator times monomial multiplier."""
    nx, ny = ideal.ring.x_count, ideal.ring.y_count

    def monomials(n, d):
        return comb(n + d - 1, d) if d >= 0 else 0

    out = {}
    for a, b in bidegrees:
        rows = sum(
            monomials(nx, a - g.bidegree[0]) * monomials(ny, b - g.bidegree[1]) for g in ideal.generators
        )
        out[f"{a}x{b}"] = (rows, monomials(nx, a) * monomials(ny, b))
    return out

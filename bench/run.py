#!/usr/bin/env python3
"""Benchmark for the burnside package, timed from outside the program.

    python3 bench/run.py --workload catalog-sweep --seed 1 --seconds 30 --trace 0

Workloads:
  catalog-sweep     `burnside verify-main-theorem --max-order 128`, one child
                    process at a time: 63 catalog p-groups, exit code 3 with
                    22 disagreement rows by design.
  membership-batch  in process: set-up builds the lattices, marks and
                    congruences of EA(2,5), C8xC8xC2 and S5 (from
                    bench/data/s5.perm); the timed phase decides a seeded
                    stream of ghost vectors (members, perturbed members and
                    uniform random vectors) by both membership routes and
                    minimal_multiplier. Each lattice's lcm over its unit
                    vectors is checked after the timed phase.
  all               both in turn (for people; the last line then sums them).

Every time is scaled to a nominal host speed from a reference kernel timed
around each operation, with the process pinned to one CPU (see hostclock.py);
the raw times are printed beside them and kept in bench/out/.

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload's
in-process equivalent, alternating untraced and traced passes, records a
span around every public call, and reports per-module times and exact sizes;
sizes must equal the pinned ones in bench/data/expected.json. Every output
is checked against pinned results, and the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. Samples, spans
and run metadata are written to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from math import lcm
from pathlib import Path

from hostclock import KERNEL_NOMINAL_S, HostClock, pin_to_one_cpu
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = BENCH / "data"
OUT = BENCH / "out"

WORKLOADS = ("catalog-sweep", "membership-batch")
SWEEP_ARGS = ("verify-main-theorem", "--max-order", "128")
MEMBERSHIP_SPECS = ("EA(2,5)", "C8xC8xC2", f"perm:{DATA / 's5.perm'}")
VECTOR_KINDS = ("member", "perturbed", "random")
VECTORS_PER_KIND = 4  # per lattice and pass: 36 vectors a pass
SETUP_REPEATS_CLI = 11
SETUP_REPEATS_INPROC = 3
CHILD_TIMEOUT_S = 150
SHOW_MISMATCHES = 5

# Per-layer time metrics: the span names whose self time each one sums.
LAYER_TIMES = {
    "catalog.build_s": ("standard_catalog", "parse_group_spec", "build_group"),
    "lattice.enumerate_s": ("enumerate_subgroups",),
    "burnside_ring.marks_s": ("table_of_marks",),
    "burnside_ring.congruences_s": ("dress_congruences",),
    "burnside_ring.solve_s": ("marks_membership",),
    "burnside_ring.multiplier_s": ("minimal_multiplier",),
    "burnside_ring.dress_s": ("dress_membership",),
    "exponent.artin_s": ("artin_exponent", "closed_form_exponent"),
}
LAYER_COUNTS = (
    "catalog.builds",
    "lattice.subgroups",
    "lattice.classes",
    "burnside_ring.congruences",
    "burnside_ring.congruence_terms",
    "burnside_ring.marks_nonzero",
    "burnside_ring.dress_violations",
    "exponent.dress_passes",
)


class Run:
    """What one benchmark run saw: operations, failures, metrics and notes."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.record: dict = {}

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.note(f"failed: {what}")

    def require(self, ok: bool, what: str) -> None:
        """A check on the run itself (sizes, spans, determinism), not an operation."""
        if not ok:
            self.problems.append(what)
            self.note(f"check failed: {what}")

    def note(self, text: str) -> None:
        if self.failed + len(self.problems) <= SHOW_MISMATCHES:
            print(f"[{self.workload}] {text}", file=sys.stderr)

    def metric(self, name: str, value: float, unit: str, detail: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        print(f"{self.workload:<17} {name:<32} {value:>14.6g} {unit:<6} {detail}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


# ---------------------------------------------------------------- helpers


def timed_loop(seconds: float, step) -> int:
    """Call step(i) for i = 0, 1, ... until ``seconds`` have passed.

    A step is not started when, at the median step time so far, it would
    end past the deadline; the first step always runs.
    """
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        if step(len(durations)) is False:
            break
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    return len(durations)


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def report_queries(run: Run, raw_wall: list[float], factors: list[float],
                   latencies: list[float], unit: str) -> None:
    """End-to-end time metrics from raw pass times, their speed factors, and
    per-query latencies already scaled."""
    wall = [t * f for t, f in zip(raw_wall, factors)]
    run.metric("wall_s", statistics.median(wall), "s",
               f"median of {len(wall)} passes; raw {statistics.median(raw_wall):.6g} s")
    run.metric(
        "queries_per_s",
        len(latencies) / sum(wall),
        "1/s",
        f"{len(latencies)} {unit}s in {sum(wall):.3f} s; raw {len(latencies) / sum(raw_wall):.6g}",
    )
    run.metric("query_p50_ms", 1e3 * percentile(latencies, 50), "ms", f"n={len(latencies)}")
    run.metric("query_p99_ms", 1e3 * percentile(latencies, 99), "ms", f"n={len(latencies)}")
    run.record.update(latencies_s=latencies, pass_wall_raw_s=raw_wall)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args) -> subprocess.CompletedProcess | None:
    """Run one child process to completion; None when it timed out (it is killed)."""
    try:
        return subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(args, nproc: int, cpu: int | None) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "kernel_nominal_s": KERNEL_NOMINAL_S,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def load_expected() -> dict:
    return json.loads((DATA / "expected.json").read_text())


# --------------------------------------------- calls into the program, one span each


def lattice_for(B, tracer: Tracer, counts: Counter, group, item):
    """Enumerate the lattice and fill its marks and congruences, which the
    lattice caches, so later calls on it do only their own work."""
    with tracer.span("enumerate_subgroups", item):
        lattice = B.enumerate_subgroups(group)
    with tracer.span("table_of_marks", item):
        marks = B.table_of_marks(lattice)
    with tracer.span("dress_congruences", item):
        congruences = B.dress_congruences(lattice)
    sizes = {
        "subgroups": len(lattice.all_subgroups),
        "classes": lattice.class_count,
        "congruences": len(congruences),
        "congruence_terms": sum(len(c.terms) for c in congruences),
        "marks_nonzero": sum(len(row) - row.count(0) for row in marks.entries),
    }
    counts["lattice.subgroups"] += sizes["subgroups"]
    counts["lattice.classes"] += sizes["classes"]
    counts["burnside_ring.congruences"] += sizes["congruences"]
    counts["burnside_ring.congruence_terms"] += sizes["congruence_terms"]
    counts["burnside_ring.marks_nonzero"] += sizes["marks_nonzero"]
    return lattice, sizes


def exponent_of(B, tracer: Tracer, counts: Counter, lattice, item):
    """artin_exponent for the elementary abelian family, as the CLI runs it,
    then the indicator vector through both routes and minimal_multiplier."""
    family = B.SubgroupFamily.ELEMENTARY_ABELIAN
    with tracer.span("artin_exponent", item):
        result = B.artin_exponent(lattice, family)
    e = result.exponent
    order = lattice.group.order
    counts["exponent.dress_passes"] += sum(1 for d in range(1, e + 1) if order % d == 0)
    indicator = B.indicator_vector(lattice, family)
    decision = decide(B, tracer, lattice, indicator, item)
    holds, violations, member, _, n = decision
    counts["burnside_ring.dress_violations"] += violations
    counts["route.agree"] += holds == member
    counts["route.decided"] += 1
    consistent = holds == member and n == e and member == (e == 1)
    return result, consistent


def decide(B, tracer: Tracer, lattice, vector, item):
    """One query: both membership routes and the minimal multiplier."""
    with tracer.span("dress_membership", item):
        certificate = B.dress_membership(lattice, vector)
    with tracer.span("marks_membership", item):
        member, coefficients = B.marks_membership(lattice, vector)
    with tracer.span("minimal_multiplier", item):
        n = B.minimal_multiplier(lattice, vector)
    return certificate.holds, len(certificate.violations), member, coefficients, n


# ------------------------------------------------------------ catalog-sweep


def sweep_rows_from_stdout(text: str) -> list[list]:
    rows = []
    for line in text.splitlines()[1:]:
        fields = line.split()
        if len(fields) == 6 and fields[1].isdigit():
            rows.append(fields)
    return rows


def sweep_pass(B, tracer: Tracer, counts: Counter, seed: int):
    """verify_main_theorem(128) as public calls, in its order; returns the
    rows as the CLI prints them, split into fields."""
    rows = []
    consistent = True
    with tracer.span("pass", "catalog-sweep"):
        with tracer.span("standard_catalog"):
            specs = [
                s for s in B.standard_catalog(128) if s.order() is not None and s.order() <= 128
            ]
        for spec in specs:
            item = spec.text()
            with tracer.span("build_group", item):
                group = B.build_group(spec)
            counts["catalog.builds"] += 1
            lattice, _ = lattice_for(B, tracer, counts, group, item)
            result, ok = exponent_of(B, tracer, counts, lattice, item)
            consistent &= ok
            with tracer.span("closed_form_exponent", item):
                closed, case = B.closed_form_exponent(group)
            agree = "yes" if closed == result.exponent else "NO"
            rows.append([item, str(group.order), str(result.exponent), str(closed), case, agree])
    return {"rows": rows, "consistent": consistent}


def check_sweep_rows(run: Run, rows: list[list], expected: list[list]) -> None:
    for i, want in enumerate(expected):
        got = rows[i] if i < len(rows) else None
        run.op(got == want, f"catalog row {i}: got {got}, want {want}")
    for extra in rows[len(expected):]:
        run.op(False, f"unexpected catalog row {extra}")


def sweep_cli(run: Run, clock: HostClock, seconds: float, expected: dict) -> None:
    want_rows = expected["catalog_sweep"]["rows"]
    trailer = f"disagreements: {sum(r[5] == 'NO' for r in want_rows)}"

    def call(_):
        proc, raw, factor = clock.time(lambda: run_child(["-m", "burnside.cli", *SWEEP_ARGS]))
        raw_wall.append(raw)
        factors.append(factor)
        if proc is None or proc.returncode != 3 or not proc.stdout.decode().endswith(trailer + "\n"):
            for i in range(len(want_rows)):
                run.op(False, f"catalog row {i}: bad exit or output ({proc and proc.returncode})")
            return False
        check_sweep_rows(run, sweep_rows_from_stdout(proc.stdout.decode()), want_rows)

    raw_wall: list[float] = []
    factors: list[float] = []
    timed_loop(seconds, call)
    report_queries(run, raw_wall, factors, [t * f for t, f in zip(raw_wall, factors)], "call")


# --------------------------------------------------------- membership-batch


def build_lattices(B, tracer: Tracer, counts: Counter, expected_sizes: dict, run: Run):
    lattices = []
    for text in MEMBERSHIP_SPECS:
        name = text if not text.startswith("perm:") else "S5"
        with tracer.span("parse_group_spec", name):
            spec = B.parse_group_spec(text)
        with tracer.span("build_group", name):
            group = B.build_group(spec)
        counts["catalog.builds"] += 1
        lattice, sizes = lattice_for(B, tracer, counts, group, name)
        want = expected_sizes[name]
        got = {"order": group.order, **sizes}
        run.require(got == want, f"{name} sizes {got} != pinned {want}")
        lattices.append((name, lattice))
    return lattices


def sparse_marks(B, lattice) -> list[list[tuple[int, int]]]:
    return [[(j, m) for j, m in enumerate(row) if m] for row in B.table_of_marks(lattice).entries]


def vector_stream(seed: int, pass_index: int, lattices, marks_rows) -> list[tuple]:
    """The seeded vectors of one pass: (lattice index, kind, values, coefficients).

    Members are the marks table times coefficients drawn from [-3, 3];
    perturbed members add 1 to one class; random vectors are uniform in
    [-5, 5]. Coefficients are kept for members only. No vector is zero.
    """
    rng = random.Random(seed * 1_000_003 + pass_index)
    stream = []
    for index, (_, lattice) in enumerate(lattices):
        n = lattice.class_count
        for kind in VECTOR_KINDS:
            for _ in range(VECTORS_PER_KIND):
                coefficients = None
                if kind == "random":
                    values = [rng.randint(-5, 5) for _ in range(n)]
                else:
                    c = [rng.randint(-3, 3) for _ in range(n)]
                    if not any(c):
                        c[rng.randrange(n)] = 1
                    values = [sum(m * c[j] for j, m in row) for row in marks_rows[index]]
                    if kind == "member":
                        coefficients = tuple(c)
                    else:
                        values[rng.randrange(n)] += 1
                if not any(values):
                    values[0] = 1
                stream.append((index, kind, tuple(values), coefficients))
    rng.shuffle(stream)
    return stream


def check_decision(B, lattice, values, coefficients, decision) -> str:
    """Empty when the decision is right, else what is wrong with it."""
    holds, _, member, coeffs, n = decision
    if holds != member:
        return f"routes disagree (dress {holds}, marks {member})"
    if coefficients is not None and not (member and coeffs == coefficients and n == 1):
        return "member not recovered with its generating coefficients"
    if member != (n == 1) or lattice.group.order % n:
        return f"multiplier {n} inconsistent with verdict {member}"
    if any((c * n).denominator != 1 for c in coeffs):
        return f"multiplier {n} does not clear the coefficients"
    if n > 1 and not B.dress_membership(lattice, B.GhostVector(lattice, values) * n).holds:
        return f"{n} times the vector fails the Dress congruences"
    return ""


def unit_vector_lcm(B, lattice) -> int:
    n = lattice.class_count
    acc = 1
    for k in range(n):
        unit = B.GhostVector(lattice, [1 if i == k else 0 for i in range(n)])
        acc = lcm(acc, B.minimal_multiplier(lattice, unit))
    return acc


def decide_stream(B, tracer: Tracer, lattices, stream, latencies: list | None = None):
    decisions = []
    for i, (index, _, values, _) in enumerate(stream):
        lattice = lattices[index][1]
        t0 = time.perf_counter()
        try:
            decision = decide(B, tracer, lattice, B.GhostVector(lattice, values), i)
        except Exception as exc:  # a raising query is a failed operation, not a crash
            decision = ("raised", repr(exc))
        if latencies is not None:
            latencies.append(time.perf_counter() - t0)
        decisions.append(decision)
    return decisions


def check_stream(run: Run, B, lattices, stream, decisions) -> None:
    for (index, kind, values, coefficients), decision in zip(stream, decisions):
        name, lattice = lattices[index]
        if decision[0] == "raised":
            run.op(False, f"{name} {kind} vector raised {decision[1]}")
            continue
        problem = check_decision(B, lattice, values, coefficients, decision)
        run.op(not problem, f"{name} {kind} vector: {problem}")


def digest(decisions) -> str:
    text = repr(
        [d if d[0] == "raised" else (d[0], d[1], d[2], [str(c) for c in d[3]], d[4]) for d in decisions]
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def membership_pass(B, tracer: Tracer, counts: Counter, seed: int, run: Run, expected: dict):
    """Set-up, each lattice's Artin exponent and the first pass of the vector
    stream, as public calls; checks on the outputs run outside the pass."""
    with tracer.span("pass", "membership-batch"):
        lattices = build_lattices(B, tracer, counts, expected["membership_sizes"], run)
        exponents = [exponent_of(B, tracer, counts, lattice, name) for name, lattice in lattices]
        rows = [sparse_marks(B, lattice) for _, lattice in lattices]
        stream = vector_stream(seed, 0, lattices, rows)
        decisions = decide_stream(B, tracer, lattices, stream)
    for d in decisions:
        if d[0] != "raised":
            counts["burnside_ring.dress_violations"] += d[1]
            counts["route.agree"] += d[0] == d[2]
            counts["route.decided"] += 1
    return {
        "digest": digest(decisions),
        "exponents": [[result.exponent, ok] for result, ok in exponents],
        "check": (lattices, stream, decisions),
    }


def check_membership_lattices(run: Run, B, lattices, expected: dict, exponents=None) -> None:
    """Each lattice's Artin exponent against the pinned one, and its lcm over
    unit vectors against the group order: one operation each."""
    if exponents is None:
        off = Tracer(False)
        exponents = [
            [result.exponent, ok]
            for result, ok in (exponent_of(B, off, Counter(), lat, name) for name, lat in lattices)
        ]
    for (name, lattice), (e, consistent) in zip(lattices, exponents):
        want = expected["membership_exponents"][name]
        run.op(e == want and consistent, f"{name} Artin exponent {e} != pinned {want}")
    for name, lattice in lattices:
        value = unit_vector_lcm(B, lattice)
        run.op(value == lattice.group.order, f"{name} unit-vector lcm {value} != |G|")


def membership_untraced(run: Run, clock: HostClock, seed: int, seconds: float, expected: dict) -> None:
    B, raw, factor = clock.time(lambda: importlib.import_module("burnside"))
    import_s = raw * factor
    off = Tracer(False)
    builds = []
    for _ in range(SETUP_REPEATS_INPROC):
        lattices, raw, factor = clock.time(
            lambda: build_lattices(B, off, Counter(), expected["membership_sizes"], run)
        )
        builds.append((raw * factor, raw))
    run.metric(
        "setup_s",
        import_s + statistics.median(b[0] for b in builds),
        "s",
        f"import {import_s:.4f} s + median of {len(builds)} lattice builds; "
        f"raw builds {', '.join(f'{b[1]:.4f}' for b in builds)} s",
    )
    rows = [sparse_marks(B, lattice) for _, lattice in lattices]
    first_stream = vector_stream(seed, 0, lattices, rows)
    raw_wall: list[float] = []
    factors: list[float] = []
    latencies: list[float] = []

    def one_pass(p):
        stream = first_stream if p == 0 else vector_stream(seed, p, lattices, rows)
        raw_latencies: list[float] = []
        decisions, raw, factor = clock.time(
            lambda: decide_stream(B, off, lattices, stream, raw_latencies)
        )
        raw_wall.append(raw)
        factors.append(factor)
        latencies.extend(t * factor for t in raw_latencies)
        if p == 0:
            run.record["stream_digest"] = digest(decisions)
        check_stream(run, B, lattices, stream, decisions)

    passes = timed_loop(seconds, one_pass)
    report_queries(run, raw_wall, factors, latencies, "vector")
    run.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    check_membership_lattices(run, B, lattices, expected)
    run.require(
        vector_stream(seed, 0, lattices, rows) == first_stream,
        "the same seed gave different vectors",
    )
    print(f"{run.workload:<17} passes {passes}, {len(first_stream)} vectors each; "
          f"first-pass output digest {run.record['stream_digest']}")


# ------------------------------------------------------------- traced runs


def layer_metrics(tracer: Tracer, first: int, counts: Counter, factor: float) -> dict:
    """Per-layer self times of one traced pass, scaled by the pass's speed
    factor, and its counts."""
    own = tracer.self_times(first)
    by_name: Counter = Counter()
    for record, t in zip(tracer.spans[first:], own):
        by_name[record[0]] += t
    scale = factor / 1e9
    values = {name: sum(by_name[s] for s in spans) * scale for name, spans in LAYER_TIMES.items()}
    values.update({name: counts[name] for name in LAYER_COUNTS})
    values["burnside_ring.route_agreement"] = counts["route.agree"] / max(counts["route.decided"], 1)
    values["bench.glue_s"] = (sum(own) - sum(by_name[s] for spans in LAYER_TIMES.values() for s in spans)) * scale
    values["pass_s"] = sum(own) * scale
    return values


def span_cost_s(repeats: int = 20000) -> float:
    """Time one enter and exit of a recorded span, on a scratch tracer."""
    tracer = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(repeats):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - t0) / repeats


def traced(run: Run, clock: HostClock, seed: int, seconds: float, expected: dict) -> None:
    import burnside as B

    workload = run.workload
    pass_fn = {
        "catalog-sweep": sweep_pass,
        "membership-batch": lambda B, t, c, s: membership_pass(B, t, c, s, run, expected),
    }[workload]
    off, on = Tracer(False), Tracer(True)
    walls: dict[bool, list[float]] = {False: [], True: []}
    outputs: dict[bool, list] = {False: [], True: []}
    per_pass: list[dict] = []

    def pair(i):
        for tracer in (off, on) if i % 2 == 0 else (on, off):
            first = len(tracer.spans)
            counts: Counter = Counter()
            out, raw, factor = clock.time(lambda: pass_fn(B, tracer, counts, seed))
            walls[tracer.enabled].append(raw * factor)
            outputs[tracer.enabled].append(out)
            if tracer.enabled:
                try:
                    tracer.check(first)
                except AssertionError as exc:
                    run.require(False, str(exc))
                per_pass.append(layer_metrics(tracer, first, counts, factor))

    pairs = timed_loop(seconds, pair)
    check_traced_outputs(run, B, outputs, per_pass, expected)

    for name in LAYER_TIMES:
        run.metric(name, statistics.median(p[name] for p in per_pass), "s",
                   f"median of {len(per_pass)} traced passes")
    last = per_pass[-1]
    for name in LAYER_COUNTS:
        run.metric(name, last[name], "count")
    run.metric("burnside_ring.route_agreement", last["burnside_ring.route_agreement"], "ratio")
    run.require(last["burnside_ring.route_agreement"] == 1, "membership routes disagreed")

    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    spans_per_pass = len(on.spans) / len(per_pass)
    layers_total = sum(last[name] for name in LAYER_TIMES) + last["bench.glue_s"]
    print(f"{workload:<17} tracing overhead {overhead:+.4f} s traced minus untraced pass "
          f"({100 * overhead / statistics.median(walls[False]):+.2f}%, medians of {pairs} pairs); "
          f"{spans_per_pass:.0f} spans a pass at {1e6 * span_cost_s():.2f} us each")
    print(f"{workload:<17} layer self times add up to {layers_total:.6f} s, the traced total "
          f"{last['pass_s']:.6f} s (benchmark's own share {last['bench.glue_s']:.6f} s)")
    run.record.update(
        untraced_pass_s=walls[False],
        traced_pass_s=walls[True],
        tracing_overhead_s=overhead,
        span_cost_s=span_cost_s(),
        per_pass=per_pass,
        spans=on.spans,
    )


def check_traced_outputs(run: Run, B, outputs, per_pass, expected) -> None:
    """Traced and untraced passes must give identical outputs, equal to the
    pinned ones, and the exact sizes must equal the pinned sizes."""
    workload = run.workload
    keyed = {k: [{x: v for x, v in o.items() if x != "check"} for o in outs] for k, outs in outputs.items()}
    run.require(
        all(o == keyed[False][0] for o in keyed[False] + keyed[True]),
        "traced and untraced passes gave different outputs",
    )
    if workload == "catalog-sweep":
        for out in outputs[True]:
            check_sweep_rows(run, out["rows"], expected["catalog_sweep"]["rows"])
            run.op(out["consistent"], "indicator routes disagree with artin_exponent")
    else:
        out = outputs[True][0]
        lattices, stream, decisions = out["check"]
        check_stream(run, B, lattices, stream, decisions)
        check_membership_lattices(run, B, lattices, expected, out["exponents"])
        print(f"{workload:<17} first-pass output digest {out['digest']}")
    pinned = expected["traced_sizes"].get(workload)
    if pinned:
        for p in per_pass:
            got = {k: p[k] for k in pinned}
            run.require(got == pinned, f"sizes {got} != pinned {pinned}")


# --------------------------------------------------------------- entry point


def run_workload(run: Run, args, expected: dict) -> None:
    clock = HostClock()
    run.record["speed_factors"] = clock.factors
    if args.trace:
        traced(run, clock, args.seed, args.seconds, expected)
        return
    if run.workload == "membership-batch":
        membership_untraced(run, clock, args.seed, args.seconds, expected)
        return
    setup = []
    for _ in range(SETUP_REPEATS_CLI):
        proc, raw, factor = clock.time(lambda: run_child(["-c", "import burnside.cli"]))
        run.require(proc is not None and proc.returncode == 0, "burnside.cli does not import")
        setup.append((raw * factor, raw))
    run.metric("setup_s", statistics.median(s[0] for s in setup), "s",
               f"median of {len(setup)} interpreter starts with import; "
               f"raw {statistics.median(s[1] for s in setup):.6g} s")
    sweep_cli(run, clock, args.seconds, expected)
    run.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB",
               "largest child process")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps a running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "burnside" / "__init__.py").is_file():
        print(f"error: no burnside package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    expected = load_expected()
    nproc = len(os.sched_getaffinity(0))
    meta = run_metadata(args, nproc, pin_to_one_cpu())
    print("meta " + json.dumps(meta, sort_keys=True))

    runs = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run = Run(workload)
        try:
            run_workload(run, args, expected)
        except Exception as exc:  # the program raised: report a failed run, not a crash
            traceback.print_exc()
            run.op(False, f"raised {exc!r}")
        if run.attempted:
            print(f"{workload:<17} error_rate {run.failed / run.attempted:.6g} "
                  f"({run.failed} of {run.attempted} operations failed)")
        factors = run.record.get("speed_factors")
        if factors:
            print(f"{workload:<17} host speed factor median {statistics.median(factors):.4f}, "
                  f"range {min(factors):.4f}-{max(factors):.4f} over {len(factors)} operations")
        runs.append(run)
        OUT.mkdir(exist_ok=True)
        out_file = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        out_file.write_text(json.dumps(
            {"meta": {**meta, "workload": workload}, "correct": run.correct, "attempted": run.attempted,
             "failed": run.failed, "problems": run.problems, "metrics": run.metrics, **run.record},
            default=str,
        ))

    if len(runs) == 1:
        metrics = runs[0].metrics
    else:
        metrics = {f"{r.workload}/{k}": v for r in runs for k, v in r.metrics.items()}
    print(json.dumps({
        "correct": all(r.correct for r in runs) and all(r.attempted for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

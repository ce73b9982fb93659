"""Time named stages of two source trees side by side.

Each tree's ``src/burnside`` is imported under its own package name
(``burnside_a``, ``burnside_b``), so both run in the same interpreter,
on the same heap and the same CPU: the process pins itself to one CPU,
as the benchmark does. Each pair times one sample of a stage on each
tree, alternating which tree goes first, and a sample is the total over
the stage's inputs. The stages that stand for the benchmark's workloads
(``build``, ``queries``, ``held`` and ``cli``) run the calls and the
command of ``bench/run.py``, imported read-only, so each workload's
traffic has one definition. Work a stage does not time (parsing,
building the lattice a marks stage reads) is done afresh for every
sample, so no sample reads a cache another one filled; ``queries``, as
the benchmark, decides every pass on lattices set up once. The two
trees' outputs of every pair must be equal, else the tool stops.
Printed per stage: each tree's min and median, the median over pairs
of the ratio b/a, the pairs b wins (strictly faster) and the distance
between a's quartiles, against which to hold the gap between the
medians. Standard library only.

Stages:
  perm       close the permutation files into tables (S5; S6 under cap 1000)
  enumerate  enumerate_subgroups on each --groups spec (order cap 1000)
  marks      table_of_marks on a fresh lattice of each --groups spec
  pairs      dress_congruences on a fresh lattice of each --groups spec
  build      the membership benchmark's set-up, as one sample over all
             --groups specs: parse_group_spec, build_group and the
             benchmark's lattice_for (enumeration, table_of_marks,
             dress_congruences and the dense marks it counts)
  sweep      build, enumerate and the ea-family Artin exponent over
             standard_catalog(128), as verify-main-theorem runs them
  queries    the membership benchmark's timed pass, decide_stream, over
             the seed-1 vector_stream of pass p in pair p, on lattices
             each tree set up with lattice_for and ran pass 0 on untimed,
             as the benchmark's passes after its first; compared by
             verdicts, coefficients and multipliers, not by the
             certificates' violation counts. Pass 0's digest is printed
             per tree, as ``bench/run.py --workload membership-batch
             --seed 1`` prints its first-pass digest.
  exponent   the exponent --certify query (the Artin exponent and its
             divisor witnesses, from the one pass ``exponent._certified``)
             for each family on a fresh lattice of each --groups spec,
             compared by exponent, family name, family classes and
             witnesses
  held       not timed: per --groups spec, enumeration's tracemalloc peak
             above what was traced before it, and the bytes kept by the
             benchmark's set-up (lattice_for) with one query answered by
             its decide (so whatever a query caches on the lattice is
             kept), read after a full collection (which empties CPython's
             free lists); and the objects the collector tracks
             (``len(gc.get_objects())``) right after that set-up of every
             spec, less those before it. Each tree runs it twice and the
             second run is printed, as the first run in a process
             allocates a few KB once. The numbers are exact, so a memory
             change shows in one run.
  cli        each command of CLI (the benchmark's catalog-sweep command,
             then fast rows of ROADMAP's state table) as a child of each
             tree, all pairs of one command before the next: its wall
             time, and its peak RSS from ``os.wait4`` on the line after,
             with the command; exit codes and stdout bytes must be equal.
             Children get the benchmark's ``child_env`` with
             PYTHONPATH=TREE/src, run in TREE and carry an RLIMIT_AS that
             this process does not. Both trees are compiled first
             (``compileall``), so stale bytecode cannot skew start-up.

Usage: python tools/ab_inproc.py TREE_A TREE_B [--pairs 20]
           [--stages perm,enumerate,marks,pairs,build,sweep,queries,exponent,held,cli]
           [--groups 'EA(2,5);C8xC8xC2;perm:bench/data/s5.perm']

Group specs are separated by semicolons, as specs hold commas. The
``build``, ``queries`` and ``held`` stages build under the default
caps, as the benchmark does.

Every sample starts with ``gc.collect()``, so no sample pays for the
garbage of another. Enumeration, the lattice's cached builders and the
three membership queries pause the cyclic collector themselves
(``lattice._collector_paused``); the ``build`` stage times the whole
set-up as the benchmark does, with the parsing, the group builds and the
dense marks that run with it on. Each in-process stage also prints how
many young, middle and full collections each tree started while its
samples were timed (from ``gc.get_stats()``, so the tool's own
``gc.collect()`` before each sample is left out).
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib.util
import itertools
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import run as bench  # noqa: E402  (bench/run.py, whose calls the stages reuse)

PERM_FILES = ((ROOT / "bench" / "data" / "s5.perm", 256), (ROOT / "tests" / "data" / "s6.perm", 1000))
CAP = 1000  # the order cap of the stages the benchmark does not run, so that S6 (720) runs
STAGES = ("perm", "enumerate", "marks", "pairs", "build", "sweep", "queries", "exponent", "held", "cli")
SEED = 1  # the benchmark's default seed
OFF = bench.Tracer(False)
CLI = (  # the benchmark's catalog-sweep command, then fast rows of ROADMAP's state table
    bench.SWEEP_ARGS, ("verify-main-theorem", "--max-order", "256"), ("exponent", "EA(2,6)"),
    ("exponent", "EA(2,6)", "--certify"), ("exponent", "D(8)xC3xQ(8)"), ("marks", "EA(2,5)"),
    ("lattice", "perm:bench/data/s5.perm"),
)
CHILD_AS = 1 << 31  # bytes of address space a cli child may map
# A child started by this process would start its peak RSS at this
# process's size, as Linux keeps the high-water mark across exec, so each
# command is started and reaped by a fresh, small interpreter, which
# limits its own address space for the child to inherit.
SPAWN = """import os, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]),) * 2)
start = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "burnside.cli", *sys.argv[2:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(f"\\n{time.perf_counter() - start} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}", file=sys.stderr)
"""


def load_tree(tree: str, name: str):
    """The package at TREE/src/burnside, imported as ``name``."""
    init = Path(tree).resolve() / "src" / "burnside" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def set_up(B, text: str):
    """(lattice, sizes) of one group spec, as the membership benchmark's
    set-up makes them."""
    return bench.lattice_for(B, OFF, Counter(), B.build_group(B.parse_group_spec(text)), text)


def stage(B, which: str, groups: list[str]):
    """(prepare, timed, key): prepare() makes the untimed inputs of one
    sample, timed(inputs) runs the stage on them, and key(output) is what
    must be equal on both trees."""
    build = lambda: [B.build_group(B.parse_group_spec(text), cap=CAP) for text in groups]
    lattices = lambda: [B.enumerate_subgroups(g, cap=CAP) for g in build()]
    same = lambda out: out
    if which == "perm":
        files = [(B.parse_permutation_file(path.read_text()), cap) for path, cap in PERM_FILES]
        timed = lambda files: [B.group_from_perm_generators(d, gens, order_cap=cap) for (d, gens), cap in files]
        return lambda: files, timed, lambda gs: [g.mul_table for g in gs]
    if which == "enumerate":
        census = lambda ls: [[c.members[0].elements for c in l.classes] for l in ls]
        return build, lambda gs: [B.enumerate_subgroups(g, cap=CAP) for g in gs], census
    if which == "marks":
        return lattices, lambda ls: [B.table_of_marks(l).rows for l in ls], same
    if which == "pairs":
        return lattices, lambda ls: [B.dress_congruences(l) for l in ls], same
    if which == "build":
        timed = lambda texts: [set_up(B, text)[1] for text in texts]
        return lambda: groups, timed, same
    if which == "sweep":
        specs = B.standard_catalog(128)
        family = B.SubgroupFamily.ELEMENTARY_ABELIAN
        timed = lambda ss: [B.artin_exponent(B.enumerate_subgroups(B.build_group(s)), family).exponent for s in ss]
        return lambda: specs, timed, same
    if which == "queries":
        kept = [(text, set_up(B, text)[0]) for text in groups]
        rows = [bench.sparse_marks(B, lattice) for _, lattice in kept]
        first = bench.decide_stream(B, OFF, kept, bench.vector_stream(SEED, 0, kept, rows))
        print(f"{which:<10} {B.__name__} first-pass digest {bench.digest(first)}")
        passes = itertools.count(1)
        prepare = lambda: bench.vector_stream(SEED, next(passes), kept, rows)
        key = lambda out: [d[:1] + d[2:] for d in out]  # (holds, member, coefficients, n)
        return prepare, lambda stream: bench.decide_stream(B, OFF, kept, stream), key
    if which == "exponent":
        timed = lambda ls: [B.exponent._certified(l, f) for l in ls for f in B.SubgroupFamily]
        # the family enums of two trees are not equal: compare by name
        key = lambda out: [(r.exponent, r.family.name, r.family_classes, w) for r, w in out]
        return lattices, timed, key
    raise SystemExit(f"unknown stage {which!r}; known: {', '.join(STAGES)}")


def answered(B, text: str):
    """One spec's lattice after the benchmark's set-up and one query."""
    lattice = set_up(B, text)[0]
    bench.decide(B, OFF, lattice, B.GhostVector(lattice, [1] + [0] * (lattice.class_count - 1)), 0)
    return lattice


def held(B, groups: list[str]) -> tuple[list[int], list[int], int]:
    """(bytes kept per spec, enumeration's peak bytes per spec, objects
    tracked after the set-up of all specs)."""
    kept, peaks, lattices = [], [], []
    gc.collect()
    tracemalloc.start()
    try:
        for text in groups:
            group = B.build_group(B.parse_group_spec(text))
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            B.enumerate_subgroups(group)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            lattices.append(answered(B, text))
            gc.collect()
            kept.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()
    del lattices
    gc.collect()
    before = len(gc.get_objects())
    lattices = [answered(B, text) for text in groups]
    return kept, peaks, len(gc.get_objects()) - before


def print_held(trees, groups: list[str]) -> None:
    """Both trees' ``held`` numbers, each from a second run, as the first
    run in a process allocates a few KB once."""
    for B in trees:
        held(B, groups)
    a, b = (held(B, groups) for B in trees)
    names = [text.rsplit("/", 1)[-1] for text in groups] + ["total"]
    for what, xs, ys in (("bytes", a[0] + [sum(a[0])], b[0] + [sum(b[0])]), ("enum peak", a[1], b[1])):
        for name, x, y in zip(names, xs, ys):
            print(f"{'held':<10} {what:<9} {name:<20} a {x:>10} b {y:>10} b/a {y / x:6.3f}")
    print(f"{'held':<10} {'tracked objects':<30} a {a[2]:>10} b {b[2]:>10} b/a {b[2] / a[2]:6.3f}")


def sample(prepare, timed, key, collections: list[int]) -> tuple[float, object]:
    """Time one sample: (seconds, key of its output). Adds to
    ``collections`` the collections the collector started in each
    generation while it ran."""
    inputs = prepare()
    gc.collect()
    before = gc.get_stats()
    start = time.perf_counter()
    out = timed(inputs)
    elapsed = time.perf_counter() - start
    for i, (s, t) in enumerate(zip(before, gc.get_stats())):
        collections[i] += t["collections"] - s["collections"]
    return elapsed, key(out)


def child(tree: Path, args: tuple[str, ...], rss: list[int]) -> tuple[float, tuple[int, bytes]]:
    """Run the tree's CLI on ``args`` through SPAWN: (wall seconds, (exit
    code, stdout)). Appends the child's peak RSS in KiB to ``rss``."""
    env = {**bench.child_env(), "PYTHONPATH": str(tree / "src")}
    command = [sys.executable, "-c", SPAWN, str(CHILD_AS), *args]
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True)
    wall, kib, code = proc.stderr.split()[-3:]
    rss.append(int(kib))
    return float(wall), (int(code), proc.stdout)


def alternate(which: str, pairs: int, run) -> None:
    """Call run(side) on both trees per pair, alternating which goes
    first, and print the row of its times. run returns (seconds, output),
    and the outputs of a pair must be equal. The row: each tree's min and
    median, the median over pairs of b/a, the pairs b wins and the
    distance between a's quartiles."""
    times: tuple[list[float], list[float]] = ([], [])
    for p in range(pairs):
        outs = [None, None]
        for side in (0, 1) if p % 2 == 0 else (1, 0):
            elapsed, outs[side] = run(side)
            times[side].append(elapsed)
        if outs[0] != outs[1]:
            raise SystemExit(f"{which}: the trees disagree")
    a, b = times
    q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive") if pairs > 1 else a * 3
    ratio = statistics.median(y / x for x, y in zip(a, b))
    wins = sum(y < x for x, y in zip(a, b))
    ms = " ".join(f"{t * 1e3:9.3f}" for t in (min(a), statistics.median(a), min(b), statistics.median(b)))
    print(f"{which:<10} {ms} {ratio:7.3f} {wins:>3}/{len(a)} {(q3 - q1) * 1e3:9.3f}")


def cli(trees: list[Path], pairs: int) -> None:
    """The ``cli`` stage: each command of CLI in turn, on both trees."""
    for tree in trees:
        compileall.compile_dir(tree / "src", quiet=1)
    for args in CLI:
        rss: tuple[list[int], list[int]] = ([], [])
        alternate("cli", pairs, lambda side: child(trees[side], args, rss[side]))
        a, b = (statistics.median(side) / 1024 for side in rss)
        print(f"{'':<10} peak RSS a {a:.1f} b {b:.1f} MB: {' '.join(args)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--stages", default=",".join(STAGES))
    parser.add_argument("--groups", default=";".join(bench.MEMBERSHIP_SPECS))
    args = parser.parse_args(argv)
    bench.pin_to_one_cpu()
    trees = (load_tree(args.tree_a, "burnside_a"), load_tree(args.tree_b, "burnside_b"))
    groups = args.groups.split(";")
    print(f"a = {args.tree_a}\nb = {args.tree_b}\n{args.pairs} pairs, times in ms")
    columns = ("a min", "a median", "b min", "b median")
    print(f"{'stage':<10} {' '.join(f'{c:>9}' for c in columns)} {'b/a':>7} {'b wins':>7} {'a q3-q1':>9}")
    for which in args.stages.split(","):
        if which == "held":
            print_held(trees, groups)
            continue
        if which == "cli":
            cli([Path(args.tree_a).resolve(), Path(args.tree_b).resolve()], args.pairs)
            continue
        stages = [stage(B, which, groups) for B in trees]
        collections = ([0, 0, 0], [0, 0, 0])  # young, middle, full
        alternate(which, args.pairs, lambda side: sample(*stages[side], collections[side]))
        a, b = ("/".join(map(str, c)) for c in collections)
        print(f"{'':<10} collections (young/middle/full) a {a}, b {b}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

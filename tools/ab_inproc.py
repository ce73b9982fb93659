"""Time named stages of two source trees side by side, in one process.

Each tree's ``src/burnside`` is imported under its own package name
(``burnside_a``, ``burnside_b``), so both run in the same interpreter,
on the same heap and the same CPU. Each pair times one sample of a stage
on each tree, alternating which tree goes first, and a sample is the
total over the stage's inputs. Work a stage does not time (parsing,
building the lattice a marks stage reads) is done afresh for every
sample, so no sample reads a cache another one filled. The two trees'
outputs of every pair must be equal, else the tool stops. Printed per
stage: each tree's min and median, the median over pairs of the ratio
b/a, and the pairs b wins (strictly faster). Standard library only.

Stages:
  perm       close the permutation files into tables (S5; S6 under cap 1000)
  enumerate  enumerate_subgroups on each --groups spec (order cap 1000)
  marks      table_of_marks on a fresh lattice of each --groups spec
  pairs      dress_congruences on a fresh lattice of each --groups spec
  setup      table_of_marks then dress_congruences, as one sample
  build      what the membership benchmark's set-up times, as one sample
             over all --groups specs: parse, build, enumerate,
             table_of_marks, dress_congruences and the dense marks
  queries    a seeded stream of member, perturbed and random vectors of
             each --groups spec through dress_membership, marks_membership
             and minimal_multiplier, on lattices that have answered one
             query already, as the benchmark's passes after its first;
             compared by verdicts, coefficients and multipliers, not by
             the congruence certificates, which name the violated pair
             congruences on a tree that decides on those
  sweep      build, enumerate and the ea-family Artin exponent over
             standard_catalog(128), as verify-main-theorem runs them
  exponent   the exponent --certify query (the Artin exponent and its
             divisor witnesses, from the one pass ``exponent._certified``)
             for each family on a fresh lattice of each --groups spec,
             compared by exponent, family name, family classes and
             witnesses
  held       not timed: the bytes tracemalloc sees kept by each --groups
             spec's lattice with its table_of_marks and dress_congruences
             filled and one query answered (so whatever a query caches
             on the lattice is kept), each read after a full collection
             (which empties CPython's free lists), and the objects the
             collector tracks (``len(gc.get_objects())``) right after
             that set-up of every spec, less those before it. Each tree
             runs it twice and the second run is printed, as the first
             run in a process allocates a few KB once. Both numbers are
             exact, so a memory change shows in one run.

Usage: python tools/ab_inproc.py TREE_A TREE_B [--pairs 20]
           [--stages perm,enumerate,marks,pairs,setup,build,sweep,queries,exponent,held]
           [--groups 'EA(2,5);C8xC8xC2;perm:bench/data/s5.perm']

Group specs are separated by semicolons, as specs hold commas.

Every sample starts with ``gc.collect()``, so no sample pays for the
garbage of another. Enumeration, the lattice's cached builders and the
three membership queries pause the cyclic collector themselves
(``lattice._collector_paused``); the ``build`` stage times the whole
set-up as the benchmark does, with the parsing, the group builds and the
dense marks that run with it on. The ``queries`` stage also prints how
many young, middle and full collections each tree started over its
samples, counted through ``gc.callbacks`` while a sample is timed, so
the tool's own ``gc.collect()`` before each sample is left out.

A/B hygiene: this tool imports both trees into one process, so neither
pays start-up in its stage times. On a noisy host a stage's medians move
between sets run minutes apart (``sweep`` read 53 to 97 ms per sample on
a 2-CPU x86-64 host), so before trusting a ratio within about 5% of 1,
run an A/A set, the parent against a copy of itself, and compare. An A/B
that starts the CLI instead (``bench/run.py`` on two checkouts, or timed
``burnside`` commands) must first compile both trees, ``python -m
compileall -q src`` in each: with ``PYTHONDONTWRITEBYTECODE=1`` set, a
tree whose ``__pycache__`` is
missing or stale recompiles the package on every start, which alone
moved CLI start-up by about 28 ms (``verify-main-theorem --max-order
4``, 115 against 87 ms on a 2-CPU x86-64 host, Python 3.11.7).
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERM_FILES = ((ROOT / "bench" / "data" / "s5.perm", 256), (ROOT / "tests" / "data" / "s6.perm", 1000))
GROUPS = f"EA(2,5);C8xC8xC2;perm:{ROOT / 'bench' / 'data' / 's5.perm'}"
CAP = 1000  # the order cap of builds and enumerations, so that S6 (720) runs
STAGES = ("perm", "enumerate", "marks", "pairs", "setup", "build", "sweep", "queries", "exponent", "held")
VECTORS_PER_KIND = 12  # per lattice of the queries stage


def load_tree(tree: str, name: str):
    """The package at TREE/src/burnside, imported as ``name``."""
    init = Path(tree).resolve() / "src" / "burnside" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def stage(B, which: str, groups: list[str]):
    """(prepare, timed, key): prepare() makes the untimed inputs of one
    sample, timed(inputs) runs the stage on them, and key(output) is what
    must be equal on both trees."""
    build = lambda: [B.build_group(B.parse_group_spec(text), cap=CAP) for text in groups]
    lattices = lambda: [B.enumerate_subgroups(g, cap=CAP) for g in build()]
    same = lambda out: out
    if which == "perm":
        files = [(B.parse_permutation_file(path.read_text()), cap) for path, cap in PERM_FILES]
        timed = lambda inputs: [
            B.group_from_perm_generators(d, gens, order_cap=cap) for (d, gens), cap in inputs
        ]
        return lambda: files, timed, lambda gs: [g.mul_table for g in gs]
    if which == "enumerate":
        census = lambda ls: [[c.members[0].elements for c in l.classes] for l in ls]
        return build, lambda gs: [B.enumerate_subgroups(g, cap=CAP) for g in gs], census
    if which == "marks":
        return lattices, lambda ls: [B.table_of_marks(l).rows for l in ls], same
    if which == "pairs":
        return lattices, lambda ls: [B.dress_congruences(l) for l in ls], same
    if which == "setup":
        timed = lambda ls: [(B.table_of_marks(l).rows, B.dress_congruences(l)) for l in ls]
        return lattices, timed, same
    if which == "build":
        def timed(texts):
            out = []
            for text in texts:
                group = B.build_group(B.parse_group_spec(text), cap=CAP)
                lattice = B.enumerate_subgroups(group, cap=CAP)
                marks = B.table_of_marks(lattice)
                out.append((B.dress_congruences(lattice), marks.entries))
            return out
        return lambda: groups, timed, same
    if which == "sweep":
        specs = B.standard_catalog(128)
        family = B.SubgroupFamily.ELEMENTARY_ABELIAN
        timed = lambda ss: [
            B.artin_exponent(B.enumerate_subgroups(B.build_group(s)), family).exponent
            for s in ss
        ]
        return lambda: specs, timed, same
    if which == "queries":
        key = lambda out: [(d.holds, m, n) for d, m, n in out]
        return lambda: query_stream(B, lattices()), lambda qs: [decide(B, l, x) for l, x in qs], key
    if which == "exponent":
        timed = lambda ls: [certify(B, l, f) for l in ls for f in B.SubgroupFamily]
        # the family enums of two trees are not equal: compare by name
        key = lambda out: [(r.exponent, r.family.name, r.family_classes, w) for r, w in out]
        return lattices, timed, key
    raise SystemExit(f"unknown stage {which!r}; known: {', '.join(STAGES)}")


def query_stream(B, lattices) -> list:
    """(lattice, vector) pairs, the same on every call and tree: per lattice,
    members (the marks table times coefficients in [-3, 3]), members with
    one entry moved by one and uniform vectors in [-5, 5], shuffled, none
    zero. Each lattice first decides a unit vector, so caches made on first
    use are filled before the timed stream."""
    rng = random.Random(0)
    stream = []
    for lattice in lattices:
        n = lattice.class_count
        decide(B, lattice, B.GhostVector(lattice, [1] + [0] * (n - 1)))
        rows = B.table_of_marks(lattice).rows
        for kind in ("member", "perturbed", "random"):
            for _ in range(VECTORS_PER_KIND):
                if kind == "random":
                    values = [rng.randint(-5, 5) for _ in range(n)]
                else:
                    c = [rng.randint(-3, 3) for _ in range(n)]
                    values = [d * c[i] + sum(m * c[j] for j, m in tail) for i, (d, tail) in enumerate(rows)]
                    if kind == "perturbed":
                        values[rng.randrange(n)] += 1
                if not any(values):  # the least multiplier rejects the zero vector
                    values[0] = 1
                stream.append((lattice, B.GhostVector(lattice, values)))
    rng.shuffle(stream)
    return stream


def decide(B, lattice, vector) -> tuple:
    """The membership-batch query: both routes and the least multiplier."""
    return (
        B.dress_membership(lattice, vector),
        B.marks_membership(lattice, vector),
        B.minimal_multiplier(lattice, vector),
    )


def certify(B, lattice, family) -> tuple:
    """The exponent --certify query: (the exponent, its witnesses), as the
    tree's ``exponent`` command takes them."""
    return B.exponent._certified(lattice, family)


def held_setup(B, text: str):
    """One --groups spec's lattice with its marks and pair congruences
    built, as the membership benchmark's set-up keeps them, and one query
    answered, so that what a query caches on the lattice is kept too."""
    lattice = B.enumerate_subgroups(B.build_group(B.parse_group_spec(text), cap=CAP), cap=CAP)
    B.table_of_marks(lattice)
    B.dress_congruences(lattice)
    decide(B, lattice, B.GhostVector(lattice, [1] + [0] * (lattice.class_count - 1)))
    return lattice


def held(B, groups: list[str]) -> tuple[list[int], int]:
    """(bytes kept per spec, objects tracked after the set-up of all specs)."""
    kept = []
    gc.collect()
    tracemalloc.start()
    try:
        lattices = []
        for text in groups:
            before = tracemalloc.get_traced_memory()[0]
            lattices.append(held_setup(B, text))
            gc.collect()
            kept.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()
    del lattices
    gc.collect()
    before = len(gc.get_objects())
    lattices = [held_setup(B, text) for text in groups]
    return kept, len(gc.get_objects()) - before


def print_held(trees, groups: list[str]) -> None:
    """Both trees' ``held`` numbers, each from a second run, as the first
    run in a process allocates a few KB once."""
    for B in trees:
        held(B, groups)
    a, b = (held(B, groups) for B in trees)
    names = [text.rsplit("/", 1)[-1] for text in groups] + ["total"]
    for name, x, y in zip(names, a[0] + [sum(a[0])], b[0] + [sum(b[0])]):
        print(f"{'held':<10} {name:<20} bytes a {x:>10} b {y:>10} b/a {y / x:6.3f}")
    print(f"{'held':<10} {'tracked objects':<20} a {a[1]:>10} b {b[1]:>10} b/a {b[1] / a[1]:6.3f}")


def sample(prepare, timed, key, collections: list[int]) -> tuple[float, object]:
    """Time one sample, adding to ``collections`` the collections the
    collector starts in each generation while it runs."""
    inputs = prepare()
    gc.collect()

    def count(phase, info):
        if phase == "start":
            collections[info["generation"]] += 1

    gc.callbacks.append(count)
    try:
        start = time.perf_counter()
        out = timed(inputs)
        elapsed = time.perf_counter() - start
    finally:
        gc.callbacks.remove(count)
    return elapsed, key(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--stages", default=",".join(STAGES))
    parser.add_argument("--groups", default=GROUPS)
    args = parser.parse_args(argv)
    trees = (load_tree(args.tree_a, "burnside_a"), load_tree(args.tree_b, "burnside_b"))
    groups = args.groups.split(";")
    print(f"a = {args.tree_a}\nb = {args.tree_b}\n{args.pairs} pairs, times in ms")
    print(f"{'stage':<10} {'a min':>9} {'a median':>9} {'b min':>9} {'b median':>9} {'b/a':>7} {'b wins':>7}")
    for which in args.stages.split(","):
        if which == "held":
            print_held(trees, groups)
            continue
        stages = [stage(B, which, groups) for B in trees]
        times: tuple[list[float], list[float]] = ([], [])
        collections = ([0, 0, 0], [0, 0, 0])  # young, middle, full
        for p in range(args.pairs):
            outs = [None, None]
            for side in (0, 1) if p % 2 == 0 else (1, 0):
                elapsed, outs[side] = sample(*stages[side], collections[side])
                times[side].append(elapsed)
            if outs[0] != outs[1]:
                raise SystemExit(f"{which}: the trees disagree")
        a, b = times
        ratio = statistics.median(y / x for x, y in zip(a, b))
        wins = sum(y < x for x, y in zip(a, b))
        print(
            f"{which:<10} {min(a) * 1e3:9.3f} {statistics.median(a) * 1e3:9.3f} "
            f"{min(b) * 1e3:9.3f} {statistics.median(b) * 1e3:9.3f} {ratio:7.3f} "
            f"{wins:>3}/{len(a)}"
        )
        if which == "queries":
            a, b = ("/".join(map(str, c)) for c in collections)
            print(f"{'':<10} collections (young/middle/full) a {a}, b {b}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

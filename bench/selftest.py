#!/usr/bin/env python3
"""Self-tests of the benchmark itself; exits 0 when all pass.

    python3 bench/selftest.py

- span self times add up to the traced total, and bad nesting is caught;
- the same seed gives identical vectors, also in a fresh interpreter with
  another hash seed, and another seed gives other vectors;
- traced and untraced passes of both workloads give identical outputs,
  and the sweep's rows equal the pinned ones.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from collections import Counter

import run as bench
from tracer import Tracer

DIGEST_SNIPPET = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import run as bench, selftest
print(selftest.stream_digest({seed}))
"""


def check_tracer() -> None:
    tracer = Tracer(True)
    with tracer.span("pass"):
        with tracer.span("a"):
            time.sleep(0.001)
            with tracer.span("b"):
                time.sleep(0.001)
        with tracer.span("c"):
            pass
    tracer.check()
    own = tracer.self_times()
    _, _, _, start, end = tracer.spans[0]
    assert sum(own) == end - start and min(own) >= 0, own
    tracer.spans.append(["late", None, 0, end + 1, end + 2])
    try:
        tracer.check()
    except AssertionError:
        pass
    else:
        raise AssertionError("a child outside its parent was not caught")
    off = Tracer(False)
    with off.span("pass"):
        pass
    assert off.spans == []


def stream_digest(seed: int) -> str:
    import burnside as B

    expected = bench.load_expected()
    run = bench.Run("membership-batch")
    lattices = bench.build_lattices(B, Tracer(False), Counter(), expected["membership_sizes"], run)
    rows = [bench.sparse_marks(B, lattice) for _, lattice in lattices]
    stream = bench.vector_stream(seed, 0, lattices, rows)
    return hashlib.sha256(repr(stream).encode()).hexdigest()


def check_vectors() -> None:
    here = stream_digest(7)
    assert stream_digest(7) == here, "same seed, different vectors in one process"
    assert stream_digest(8) != here, "another seed gave the same vectors"
    code = DIGEST_SNIPPET.format(bench=str(bench.BENCH), src=str(bench.SRC), seed=7)
    env = {**bench.child_env(), "PYTHONHASHSEED": "12345"}
    child = subprocess.run(
        [sys.executable, "-c", code], cwd=bench.ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == here, "same seed, different vectors in a fresh interpreter"


def check_traced_equals_untraced() -> None:
    import burnside as B

    expected = bench.load_expected()
    run = bench.Run("membership-batch")
    for name, pass_fn in (
        ("catalog-sweep", bench.sweep_pass),
        ("membership-batch", lambda B, t, c, s: bench.membership_pass(B, t, c, s, run, expected)),
    ):
        outs = []
        for tracer in (Tracer(False), Tracer(True)):
            out = pass_fn(B, tracer, Counter(), 5)
            out.pop("check", None)
            outs.append(out)
        assert outs[0] == outs[1], f"{name}: traced and untraced outputs differ"
        if name == "catalog-sweep":
            assert outs[0]["rows"] == expected["catalog_sweep"]["rows"], "sweep rows differ from pinned"
    assert run.correct, run.problems


def main() -> int:
    sys.path.insert(0, str(bench.SRC))
    for test in (check_tracer, check_vectors, check_traced_equals_untraced):
        t0 = time.perf_counter()
        test()
        print(f"ok  {test.__name__}  {time.perf_counter() - t0:.2f} s")
    return 0


if __name__ == "__main__":
    os.chdir(bench.ROOT)
    sys.exit(main())

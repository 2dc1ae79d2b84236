#!/usr/bin/env python3
"""skeinlab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process as a closed loop: one client, one call
after another into `skeinlab.cli.main`, each call on a fresh memo (the
command line takes none across calls). The call list of the workload (a
round) is generated from the seed by bench/inputs.py and written as
diagram files under .bench_out/. Whole rounds repeat until S seconds have
passed and at least 100 calls are made. Outputs are checked after the
timed loop by bench/checks.py, apart from the program's arithmetic; every
later round must print what the first round printed.

With --trace 0 the last line of stdout is the end-to-end result; with
--trace 1 untraced and traced rounds alternate, and the result holds the
per-layer metrics of the traced rounds and the tracing overhead. The
spans of the first traced round are written to
.bench_out/trace-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_CALLS = 100          # ten calls lie beyond the 90th percentile
SETUP_REPEATS = 9
MODULES = ("cli", "corpus", "textio", "diagrams", "engine", "scalars", "jaeger", "coproduct")

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import inputs  # noqa: E402
import spans   # noqa: E402


def load_program() -> dict:
    """Import skeinlab afresh from this checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "skeinlab" or m.startswith("skeinlab.")]:
        del sys.modules[name]
    sk = {m: importlib.import_module(f"skeinlab.{m}") for m in MODULES}
    where = Path(sk["cli"].__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise ImportError(f"skeinlab was imported from {where}, not from {SRC}")
    return sk


def write_case(case, work: Path) -> list:
    """Write a case's documents and return its command line."""
    if case.command == "verify":
        corpus = work / case.name
        corpus.mkdir()
        for fn, text in case.files.items():
            (corpus / fn).write_text(text, encoding="utf-8")
        # Single-threaded: the thread pool of `verify` hands the interpreter
        # lock between virtual CPUs and spread run-to-run times past the
        # benchmark's bounds; see bench/README.md.
        return ["verify", "all", "--corpus", str(corpus), "--deterministic"]
    path = work / f"{case.name}.mw"
    path.write_text(case.files["in.mw"], encoding="utf-8")
    return [case.command, str(path), "--format", "json"]


def call(cli, argv: list):
    """One timed call; returns (seconds, exit code, stdout, error). An
    exception out of cli.main, or exit code 1, is a failed operation."""
    buf = io.StringIO()
    error = None
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception as exc:  # the program's own fault: count it, keep running
        error = f"{type(exc).__name__}: {str(exc)[:120]}"
    dt = time.perf_counter() - t0
    if error is None and rc == 1:
        error = "exit 1"
    return dt, rc, buf.getvalue(), error


def setup_time(workload: str, work: Path) -> float:
    """Median over repeats of a fresh import plus one warm-up call. The
    warm-up input is the same for every seed."""
    warm = inputs.WARMUP[workload]
    argv = write_case(warm, work)
    samples = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        sk = load_program()
        _, rc, _, error = call(sk["cli"], argv)
        samples.append(time.perf_counter() - t0)
        if error is not None or rc != 0:
            raise RuntimeError(f"warm-up call failed: {error or rc}")
    return statistics.median(samples)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir()
    try:
        return _run(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, work):
    setup_s = setup_time(workload, work)
    sk = {m: sys.modules[f"skeinlab.{m}"] for m in MODULES}
    cli = sk["cli"]
    cases = inputs.WORKLOADS[workload](seed)
    argvs = [write_case(c, work) for c in cases]

    tracer = spans.Tracer() if trace else None
    first_out: list = []
    mismatches: list = []
    ok_times: list = []          # seconds of every call that did not fail
    rounds: list = []            # (traced, seconds of the round's successful calls)
    snaps: list = []
    attempted = failed = 0
    failures: dict = {}
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.keep_spans = not snaps
            spans.install(tracer, sk)
        round_s = 0.0
        for i, argv in enumerate(argvs):
            # Untimed: no call pays for, or keeps memory of, earlier garbage.
            gc.collect()
            dt, rc, out, error = call(cli, argv)
            attempted += 1
            if error is not None:
                failed += 1
                failures.setdefault(cases[i].name, error)
            else:
                round_s += dt
                ok_times.append(dt)
            if not rounds:
                first_out.append((rc, out, error))
            elif (rc, out, error) != first_out[i] and len(mismatches) < 5:
                mismatches.append(f"{cases[i].name}: round {len(rounds) + 1} differs from round 1")
        if traced:
            tracer.uninstall()
            snaps.append(tracer.snapshot())
        rounds.append((traced, round_s))
        enough = time.perf_counter() - start >= seconds and attempted >= MIN_CALLS
        if enough and (not trace or snaps):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for name, error in failures.items():
        print(f"failed: {name}: {error}", file=sys.stderr)
    problems = list(mismatches)
    slot_value = _slot_evaluator(sk)
    for case, (rc, out, error) in zip(cases, first_out):
        if error is None:
            problem = checks.check(case, rc, out, slot_value)
            if problem:
                problems.append(f"{case.name}: {problem}")
    for p in problems:
        print(f"check: {p}", file=sys.stderr)

    if trace:
        metrics = _trace_metrics(rounds, snaps, workload, seed)
    else:
        plain = [s for _, s in rounds]
        deciles = statistics.quantiles(ok_times, n=10, method="inclusive")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "call_p50_ms": {"value": deciles[4] * 1e3, "unit": "ms"},
            "call_p90_ms": {"value": deciles[8] * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"{workload} seed {seed}: {len(rounds)} rounds of {len(cases)} calls, "
          f"{len(ok_times)} timed", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _slot_evaluator(sk):
    """Values of slot diagrams with crossings, for the knotted-union check;
    the expected total is computed in bench/checks.py alone."""
    values: dict = {}    # one engine call per distinct slot document

    def slot_value(doc, q, a):
        if doc not in values:
            value = sk["engine"].eval_one_colour(sk["textio"].parse_morse(doc))
            values[doc] = sk["scalars"].to_json(value)
        return checks.scalar_at(values[doc], q, [a])
    return slot_value


def _trace_metrics(rounds, snaps, workload, seed) -> dict:
    first = snaps[0]
    for snap in snaps[1:]:
        if snap["counts"] != first["counts"]:
            print("trace: counts differ between traced rounds", file=sys.stderr)
    per_round = [spans.per_layer(s) for s in snaps]
    layer = per_round[0]
    for key, (_, unit) in list(layer.items()):
        if unit == "s":
            layer[key] = (statistics.median(r[key][0] for r in per_round), unit)
    plain = statistics.median(s for t, s in rounds if not t)
    traced = statistics.median(s for t, s in rounds if t)
    layer["trace.overhead"] = (traced / plain - 1, "ratio")
    layer["trace.spans"] = (sum(first["counts"][k] for k in first["total"]), "count")
    path = OUT / f"trace-{workload}-{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["name", "start_s", "end_s", "id", "parent", "thread"]) + "\n")
        for span in first["spans"]:
            fh.write(json.dumps(span) + "\n")
    return {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "skeinlab" / "__init__.py").is_file():
        print(f"bench: no skeinlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

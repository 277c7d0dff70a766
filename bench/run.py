#!/usr/bin/env python3
"""Closed-loop benchmark of the conemetric command line.

    python3 bench/run.py --workload sphere2d --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from any directory of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  One thread
of work calls ``conemetric.cli.main`` in this process, each operation
started when the previous one ends, with ``CONEMETRIC_THREADS=1``.
Operations write their ``--output`` files to a scratch directory under
``bench/.runs/``.  Untimed warm-up operations come first; then whole rounds
of the workload's operations run until ``--seconds`` have passed.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
each round runs once untraced and once with spans around the calls into
each layer, and the per-layer metrics are printed.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in a process of its own and merges their results.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans  # bench/ is sys.path[0] when run as a script

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / ".runs"
TRACES = BENCH / ".traces"

# fresh interpreters per run behind setup_s, half of them before the timed
# operations and half after, so that the median spans the whole run and not
# only a few seconds of the host's drift
SETUP_SAMPLES = 12
# fresh interpreters per traced run behind the import-time layers
IMPORT_SAMPLES = 7
CHILD_TIMEOUT = 120
IMPORT_LAYERS = ("angles", "spectrum", "liouville", "factorization",
                 "pairing", "cli")

# bench/workloads.py defines them; it is imported only after conemetric
WORKLOADS = tuple(w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"])

END_TO_END = (("setup_s", "s"), ("latency_p50_s", "s"),
              ("throughput_ops_s", "1/s"), ("peak_rss_mb", "MB"))


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["CONEMETRIC_THREADS"] = "1"
    return env


def _run_child(argv):
    """Run a fresh interpreter to its end; return (stdout, stderr)."""
    proc = subprocess.run([sys.executable] + argv, capture_output=True,
                          env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-400:]}")
    return proc.stdout, proc.stderr


def setup_samples(count):
    """Wall times for `count` fresh interpreters to start and import
    conemetric.cli, each up to the point where it could parse arguments."""
    code = ("import conemetric.cli, sys; sys.stdout.write('ready\\n'); "
            "sys.stdout.flush()")
    times = []
    for _ in range(count):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code],
                              stdout=subprocess.PIPE, env=_child_env(),
                              cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                times.append(perf_counter() - t0)
                proc.communicate(timeout=CHILD_TIMEOUT)
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"fresh import failed ({proc.returncode})")
    return times


def import_seconds():
    """Median incremental import time of each layer in a fresh interpreter.

    From ``-X importtime``: the cumulative time of each module's first
    import, which counts the third-party modules it is first to load.
    ``import conemetric.cli`` nests the package import, so the package's
    cumulative time is taken off the cli entry.
    """
    samples = {layer: [] for layer in IMPORT_LAYERS}
    for _ in range(IMPORT_SAMPLES):
        _, err = _run_child(["-X", "importtime", "-c",
                             "import conemetric.cli"])
        cumulative = {}
        for line in err.decode().splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].split(".")[0] == "conemetric":
                cumulative[parts[2]] = int(parts[1]) * 1e-6
        cumulative["conemetric.cli"] -= cumulative["conemetric"]
        for layer, vals in samples.items():
            vals.append(cumulative[f"conemetric.{layer}"])
    return {layer: statistics.median(v) for layer, v in samples.items()}


def timed_call(main, argv):
    """One operation: (seconds, error text or None)."""
    t0 = perf_counter()
    try:
        rc = main(argv)
        err = None if rc == 0 else f"exit {rc}"
    except SystemExit as exc:
        err = f"exit {exc.code}"
    except Exception as exc:   # a crash is one failed operation
        err = f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, err


class Tally:
    """attempted / failed / incorrect counts and the timed operations.

    A failed operation counts as infinitely slow in the latencies, so the
    median runs over every attempted operation.
    """

    def __init__(self):
        self.attempted = self.failed = self.incorrect = 0
        self.latencies = []
        self.busy = 0.0
        self.reported = set()

    def record(self, op, seconds, err):
        self.attempted += 1
        self.busy += seconds
        if err is None:
            wrong = op.failure()
            if wrong is not None:
                self.incorrect += 1
                err = f"check failed: {wrong}"
        if err is not None:
            self.failed += 1
            if op.label not in self.reported:
                self.reported.add(op.label)
                print(f"FAILED {op.label}: {err}", file=sys.stderr)
        self.latencies.append(seconds if err is None else math.inf)


def warm_up(workload, main, scratch):
    for op in workload.warmup(scratch):
        _, err = timed_call(main, op.argv)
        if err is not None:
            print(f"warm-up {op.label}: {err}", file=sys.stderr)


def end_to_end(workload, seed, seconds, cli, scratch):
    setup = setup_samples(SETUP_SAMPLES // 2)
    warm_up(workload, cli.main, scratch)
    tally = Tally()
    deadline = perf_counter() + seconds
    rounds = []
    while not rounds or perf_counter() < deadline:
        busy = tally.busy
        for op in workload.round(seed, len(rounds), scratch):
            tally.record(op, *timed_call(cli.main, op.argv))
        rounds.append(tally.busy - busy)
    setup += setup_samples(SETUP_SAMPLES - len(setup))
    r = len(rounds)
    latency = statistics.median(tally.latencies)
    if math.isinf(latency):
        raise SystemExit(f"error: {tally.failed} of {tally.attempted} "
                         "operations failed; no median latency")
    values = {
        "setup_s": statistics.median(setup),
        "latency_p50_s": latency,
        "throughput_ops_s": (tally.attempted - tally.failed) / tally.busy,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"# {workload.name}: {r} rounds, {tally.attempted} operations; "
          f"round seconds " + " ".join(f"{t:.3g}" for t in rounds),
          file=sys.stderr)
    return tally, {name: (values[name], unit) for name, unit in END_TO_END}


def traced(workload, seed, seconds, package, cli, scratch):
    tracer = spans.Tracer()
    root = tracer.span(spans.ROOT, cli.main)
    imports = import_seconds()
    warm_up(workload, cli.main, scratch)
    tally = Tally()
    plain, plain_ops, out_bytes = 0.0, 0, 0
    deadline = perf_counter() + seconds
    r = 0
    # an even number of rounds, so each pass goes first equally often and
    # the host's drift cancels from the overhead
    while r == 0 or r % 2 or perf_counter() < deadline:
        # the same inputs twice, alternating which pass goes first
        for on in ((False, True) if r % 2 == 0 else (True, False)):
            with tracer.installed(package) if on else contextlib.nullcontext():
                for op in workload.round(seed, r, scratch):
                    tracer.op += on
                    dt, err = timed_call(root if on else cli.main, op.argv)
                    tally.record(op, dt, err)
                    if on:
                        out_bytes += sum(os.path.getsize(p)
                                         for p in op.outputs
                                         if os.path.exists(p))
                    else:
                        plain += dt
                        plain_ops += 1
        r += 1

    n = tracer.op + 1
    traced_s = sum(e - s for name, s, e, *_ in tracer.spans
                   if name == spans.ROOT)
    st = tracer.self_times()

    def per_op(name, field):
        return st[name][field] / n if name in st else 0.0

    self_sum = sum(v[0] for v in st.values()) / n
    values = {f"setup.{layer}.import_s": (imports[layer], "s")
              for layer in IMPORT_LAYERS}
    layer_metrics = (
        ("cli.main_self_s", spans.ROOT, 0, "s"),
        ("cli.emit_s", "cli.emit", 0, "s"),
        ("liouville.solve_s", "liouville.solve", 1, "s"),
        ("liouville.solve_self_s", "liouville.solve", 0, "s"),
        ("liouville.linear_solves", "liouville.linear_solve", 2, "count"),
        ("liouville.linear_solve_s", "liouville.linear_solve", 0, "s"),
        ("liouville.spectrum_near_two_s", "liouville.spectrum_near_two", 0,
         "s"),
        ("liouville.eigsh_calls", "liouville.eigsh", 2, "count"),
        ("liouville.eigsh_s", "liouville.eigsh", 0, "s"),
        ("liouville.projected_solve_s", "liouville.projected_solve", 0, "s"),
        ("spectrum.football_eigenfunction_s",
         "spectrum.football_eigenfunction", 0, "s"),
        ("pairing.extract_eigf_coeffs_s", "pairing.extract_eigf_coeffs", 0,
         "s"),
        ("factorization.inverse_map_s", "factorization.inverse_map", 0, "s"),
        ("factorization.inverse_map_calls", "factorization.inverse_map", 2,
         "count"),
        ("factorization.branches", "factorization.inverse_map", 3, "count"),
        ("factorization.expansion_coeffs_s", "factorization.expansion_coeffs",
         0, "s"),
        ("factorization.jacobian_s", "factorization.jacobian", 0, "s"),
    )
    for metric, name, field, unit in layer_metrics:
        values[metric] = (per_op(name, field), unit)
    plain_op = plain / plain_ops
    values["cli.output_bytes"] = (out_bytes / n, "B")
    values["trace.op_s"] = (traced_s / n, "s")
    values["trace.untraced_op_s"] = (plain_op, "s")
    values["trace.overhead_pct"] = (100.0 * (traced_s / n / plain_op - 1.0),
                                    "%")
    print(f"# {workload.name}: {r} rounds, {n} traced operations; "
          f"self times sum to {self_sum:.6g} s/op against {plain_op:.6g} "
          f"s/op untraced", file=sys.stderr)
    TRACES.mkdir(exist_ok=True)
    tracer.dump(TRACES / f"{workload.name}-seed{seed}.json")
    return tally, values


def run_one(args):
    os.environ["CONEMETRIC_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    # the package pins the BLAS threads, so it loads before numpy does
    package = importlib.import_module("conemetric")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: conemetric imported from {package.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    cli = importlib.import_module("conemetric.cli")
    workload = importlib.import_module("workloads").WORKLOADS[args.workload]
    scratch = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        if args.trace:
            tally, values = traced(workload, args.seed, args.seconds,
                                   package, cli, str(scratch))
        else:
            tally, values = end_to_end(workload, args.seed, args.seconds,
                                       cli, str(scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name, (value, unit) in values.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


def run_all(args):
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name:10s} {line}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "conemetric" / "cli.py").is_file():
        print(f"error: no conemetric sources at {SRC}; run the benchmark "
              "from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

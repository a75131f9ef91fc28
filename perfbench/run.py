#!/usr/bin/env python3
"""realword benchmark runner.

    python3 perfbench/run.py --workload wp-refute --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; realword is imported from its
`src/` directory and nowhere else.  One process, no worker threads, one
workload per run.  Inputs come from `--seed` and are generated before any
timing.  The run:

1. runs the pinned corpus (seed 7) untimed and compares the digest of its
   ordered verdicts and certificate bytes with `perfbench/pinned.json`;
2. with `--trace 0`, times whole rounds of calls for `--seconds` seconds
   and reports the end-to-end metrics, among them set-up time (importing
   realword and building the presentations or programs, in fresh
   interpreters started between rounds);
   with `--trace 1`, times a fixed number of rounds untraced, then the same
   rounds with every layer wrapped in spans, and reports per-layer calls,
   self times and hit ratios plus the tracing overhead (traced time over
   untraced time).  The work is fixed so the call counts repeat exactly.

Every outcome is checked against an independent reference; a wrong or
missing outcome, an exception or a digest mismatch counts as a failure.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the environment (Python, word kernel, CPU count, commit) and the figures
that are not metrics (latency of rounds and single calls with their
sample counts, failure ratio).

    python3 perfbench/run.py --print-digests

prints the digests of the pinned corpora, in the format of `pinned.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

GOLDEN_SEED = 7
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60

# set-up in a fresh interpreter: realword's import plus the workload's
# build; the benchmark's own module is imported outside the timed part
_SETUP_CHILD = """\
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
t0 = time.perf_counter()
from realword import presentations, programs, reduction, sample_groups, words
t1 = time.perf_counter()
import workloads
t2 = time.perf_counter()
workloads.WORKLOADS[{name!r}].setup()
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_realword():
    if not (SRC / "realword" / "__init__.py").is_file():
        raise BenchError(f"no realword sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import realword
    got = Path(realword.__file__).resolve()
    if SRC.resolve() not in got.parents:
        raise BenchError(f"realword imported from {got}, not from {SRC}")


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pick = lambda key: {m["name"]: m["unit"] for m in spec[key]}
    return pick("end_to_end"), pick("per_layer")


# -- environment -----------------------------------------------------------------

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, standing in for a commit off git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "realword").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(pinned: dict) -> dict:
    from realword import words
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel": words.KERNEL,
        "pinned_kernel": pinned["kernel"],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


# -- measurement -----------------------------------------------------------------

def measure_setup(name: str) -> float:
    """Seconds one fresh interpreter takes to import realword and set up."""
    code = _SETUP_CHILD.format(src=str(SRC), bench=str(BENCH), name=name)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Latency per call, inputs decided, failures and rendered lines."""

    def __init__(self):
        self.latencies: list[float] = []
        self.busy_s = 0.0  # time spent inside calls
        self.inputs = 0
        self.failed = 0
        self.lines: list[str] = []
        self.errors = 0

    def run(self, workload, st, items, call=None, keep_lines=False):
        call = call or workload.call
        clock = time.perf_counter
        for item in items:
            n = workload.inputs(item)
            t0 = clock()
            try:
                out = call(st, item)
            except Exception:  # a raising call is a failed call; keep measuring
                self._timed(clock() - t0)
                self._error(n)
                continue
            self._timed(clock() - t0)
            try:
                bad, lines = workload.check(st, item, out)
            except Exception:  # an outcome the check cannot read is wrong
                self._error(n)
                continue
            self.inputs += n
            self.failed += bad
            if keep_lines:
                self.lines.extend(lines)

    def _timed(self, dt: float):
        self.latencies.append(dt)
        self.busy_s += dt

    def _error(self, n: int):
        self.inputs += n
        self.failed += n
        self.errors += 1
        if self.errors <= 3:
            traceback.print_exc(file=sys.stderr)


def flatten(rounds):
    return [item for rnd in rounds for item in rnd]


def golden_digest(workload, st) -> tuple[str, Tally]:
    tally = Tally()
    tally.run(workload, st, workload.golden(st, GOLDEN_SEED), keep_lines=True)
    digest = hashlib.sha256("\n".join(tally.lines).encode()).hexdigest()
    return digest, tally


def timed_run(workload, st, pool, seconds: float) -> tuple[Tally, dict, dict]:
    """Whole rounds, cycling the pool, until `seconds` have passed.

    Latency is taken per round, a balanced set of calls: the median of a
    mix of calls with costs as different as these lands between modes and
    jumps with the mix, while a round's latency moves only with the code.
    Set-up samples are taken between rounds, spread over the run, so that
    a few seconds of unusual machine speed move one of them at most.
    """
    tally = Tally()
    rounds: list[float] = []
    setups: list[float] = []
    clock = time.perf_counter
    start = clock()
    while not rounds or clock() < start + seconds:
        if clock() - start >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append(measure_setup(workload.name))
        busy = tally.busy_s
        tally.run(workload, st, pool[len(rounds) % len(pool)])
        rounds.append(tally.busy_s - busy)
    while len(setups) < SETUP_SAMPLES:
        setups.append(measure_setup(workload.name))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "inputs_per_s": (tally.inputs / tally.busy_s, "1/s"),
        "round_p50_ms": (statistics.median(rounds) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {"rounds": len(rounds), "busy_s": tally.busy_s}
    details.update(tail("round", rounds), **tail("call", tally.latencies))
    return tally, metrics, details


def tail(unit: str, lat: list[float]) -> dict:
    """Sample count, median, and p90 when at least ten samples lie above it."""
    out = {f"{unit}s": len(lat), f"{unit}_p50_ms": statistics.median(lat) * 1e3}
    if len(lat) >= 2:
        p90 = statistics.quantiles(lat, n=10)[-1]
        above = sum(x > p90 for x in lat)
        out[f"{unit}_p90_samples_above"] = above
        if above >= 10:
            out[f"{unit}_p90_ms"] = p90 * 1e3
    return out


def traced(workload, st, rounds) -> tuple[dict, Tally, Tally, dict]:
    from tracing import CALL_SPAN, Tracer
    items = flatten(rounds)
    plain = Tally()
    plain.run(workload, st, items)
    tracer = Tracer()
    call = tracer.wrap(CALL_SPAN, workload.call, keep=True)
    spanned = Tally()
    tracer.install()
    try:
        spanned.run(workload, st, items, call=call)
    finally:
        tracer.restore()
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = (spanned.busy_s / plain.busy_s, "ratio")
    return metrics, plain, spanned, tracer.dump()


# -- entry points ----------------------------------------------------------------

def load_pinned() -> dict:
    return json.loads((BENCH / "pinned.json").read_text())


def print_digests() -> int:
    import_realword()
    from realword import words
    from workloads import WORKLOADS
    digests = {}
    for name, workload in WORKLOADS.items():
        digest, tally = golden_digest(workload, workload.setup())
        if tally.failed:
            print(f"{name}: {tally.failed} wrong outcomes in the pinned corpus",
                  file=sys.stderr)
            return 1
        digests[name] = digest
    print(json.dumps({"kernel": words.KERNEL, "golden_seed": GOLDEN_SEED,
                      "digests": digests}, indent=2))
    return 0


def run(args) -> int:
    import_realword()
    from workloads import WORKLOADS
    e2e_spec, layer_spec = declared_metrics()
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    pinned = load_pinned()
    env = environment(pinned)
    if env["kernel"] != env["pinned_kernel"]:
        print(f"warning: word kernel {env['kernel']!r} differs from the kernel the "
              f"digests were pinned with ({env['pinned_kernel']!r}); do not compare "
              f"these figures with runs on another kernel", file=sys.stderr)

    st = workload.setup()
    pool = workload.rounds(st, args.seed, workload.rounds_pooled)

    digest, golden = golden_digest(workload, st)
    want = pinned["digests"][workload.name]
    details = {"golden_digest": digest, "digest_matches": digest == want}

    if args.trace:
        metrics, plain, spanned, dump = traced(
            workload, st, pool[:workload.trace_rounds])
        tallies = (golden, plain, spanned)
        spec = layer_spec
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(dump))
        details.update(rounds=workload.trace_rounds, untraced_s=plain.busy_s,
                       traced_s=spanned.busy_s,
                       trace_file=str(trace_file.relative_to(ROOT)))
    else:
        timed, metrics, more = timed_run(workload, st, pool, args.seconds)
        tallies = (golden, timed)
        spec = e2e_spec
        details.update(more)

    if set(metrics) != set(spec) or any(metrics[k][1] != u for k, u in spec.items()):
        raise BenchError("emitted metrics do not match BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(spec))}")
    attempted = sum(t.inputs for t in tallies)
    failed = sum(t.failed for t in tallies) + (0 if details["digest_matches"] else 1)
    details["failed_ratio"] = failed / attempted
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      "trace": args.trace, "env": env, "details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": u} for k, u in spec.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--print-digests", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.print_digests:
            return print_digests()
        if not args.workload:
            ap.error("--workload is required")
        return run(args)
    except (BenchError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Run one fqsurf benchmark workload and print its metrics.

    python3 fqbench/run.py --workload certify_ladder --seed 0 --seconds 28 --trace 0

fqsurf is imported from ``src/`` beside this directory, never from an
installed copy; without it the run fails before printing a result.  The
workload's inputs come from ``--seed`` alone.  The run is a closed loop in
one process and one thread: each instance starts when the previous one
returns, and its outputs are checked after its timer stops.

Every timed sample of the end-to-end metrics is scaled to a nominal host
speed: on a shared host the interpreter's speed swings by up to 1.4x over
seconds to minutes, often for a whole run.  A fixed loop
(``reference_seconds``) is timed just before and just after each sample,
and the sample is multiplied by REF_S over the loop's mean time, so the
metrics read as seconds on a host where the loop takes REF_S.  The loop
allocates no containers, so nothing the program does to the heap or the
garbage collector changes its time.  The run's median loop time is
printed; it undoes the scaling.  Per-layer self times are not scaled.

Set-up is an import of fqsurf plus input generation.  Untraced runs
report as ``setup_s`` the median over SETUP_REPEATS set-ups, each in a
fresh process (this one and child processes started with
``--setup-only``), so that every sample pays for every module fqsurf
imports.  Then, for ``--seconds``,
each whole pass over the instance list is followed by passes over the
instances with F <= 64, so that the samples of every instance spread over
the whole run.  ``pass_s`` sums, over all instances, each one's median
scaled time; ``small_s`` sums the same medians over the instances with
F <= 64 only.  One slow sample moves neither.

With ``--trace 1`` the functions of every layer are wrapped (see spans.py)
and only whole passes run.  The result then holds the per-layer metrics:
self time and calls per pass, work counters per pass, and the traced pass
time, which report.py compares with an untraced run to give the tracing
overhead.  Spans and instance shapes are written to ``.fqbench/`` at the
end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output check passed, 1 when one failed, and 2 when fqsurf
could not be imported or the arguments are wrong.
"""

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".fqbench"
GOLDEN = HERE / "golden.json"

MODULES = ("surface_complex", "tessellation", "loops", "coloring", "lattice", "cli")
SETUP_REPEATS = 7
REF_S = 0.003
REF_LOOPS = 40000
CHILD_TIMEOUT_S = 60
SMALL_SHARE = 0.25


class Modules:
    """The fqsurf modules of one import, by short name."""

    def __init__(self, package, modules):
        self.package = package
        for name, mod in modules.items():
            setattr(self, name, mod)

    def all_modules(self):
        return [self.package] + [getattr(self, name) for name in MODULES]


def import_fqsurf():
    """Import fqsurf from this checkout's ``src/``."""
    package = importlib.import_module("fqsurf")
    if Path(package.__file__).resolve().parent != SRC / "fqsurf":
        raise ImportError(f"fqsurf came from {package.__file__}, not {SRC}")
    return Modules(package, {n: importlib.import_module(f"fqsurf.{n}") for n in MODULES})


def reference_seconds():
    """Wall seconds of a fixed integer loop, at the host's current speed."""
    t0 = perf_counter()
    total = 0
    for i in range(REF_LOOPS):
        total += i * i % 7
    return perf_counter() - t0


def load_golden():
    """Pinned digests by document name; none when golden.json is absent."""
    if not GOLDEN.exists():
        return {}
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


class Tally:
    """Per-instance scaled-time samples and the operation counts."""

    def __init__(self, instances):
        self.samples = {inst.key: [] for inst in instances}
        self.references = []
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def run(self, inst, recorder=None, pass_index=0):
        gc.collect()
        reference = reference_seconds()
        results = []
        elapsed = 0.0
        if recorder is not None:
            recorder.begin(pass_index, inst.key)
        for step in inst.steps:
            t0 = perf_counter()
            try:
                out = step()
            except Exception as exc:  # a crashing step is a failed operation
                out = exc
            elapsed += perf_counter() - t0
            results.append(out)
        if recorder is not None:
            recorder.end()
        reference = (reference + reference_seconds()) / 2
        self.samples[inst.key].append(elapsed * REF_S / reference)
        self.references.append(reference)
        crashed = [(k, repr(r)) for k, r in enumerate(results) if isinstance(r, Exception)]
        failures = crashed or inst.check(results)
        self.attempted += len(inst.steps)
        self.failed += len({k for k, _ in failures})
        self.messages += [f"{inst.key} step {k}: {msg}" for k, msg in failures]

    def seconds(self, instances):
        """Sum over the instances of each one's median scaled time."""
        return sum(statistics.median(self.samples[inst.key]) for inst in instances)


def measure(instances, seconds, recorder):
    """Rounds of one whole pass followed by passes over the small instances
    for SMALL_SHARE of that pass's time, while another round fits; small
    passes fill what is left.  Traced runs make whole passes only, so that
    every pass does the same counted work."""
    tally = Tally(instances)
    small = [inst for inst in instances if inst.faces <= workloads.SMALL_F]
    repeat_small = recorder is None and bool(small)
    deadline = perf_counter() + seconds
    pass_counts = []
    last_small = 0.0

    def small_passes(until):
        nonlocal last_small
        ran = False
        while not ran or perf_counter() + last_small <= until:
            t0 = perf_counter()
            for inst in small:
                tally.run(inst)
            last_small = perf_counter() - t0
            ran = True

    last_round = 0.0
    while not pass_counts or perf_counter() + last_round <= deadline:
        t0 = perf_counter()
        for inst in instances:
            tally.run(inst, recorder, len(pass_counts))
        if recorder is not None:
            pass_counts.append(recorder.counts)
            recorder.counts = Counter()
        else:
            pass_counts.append(None)
        if repeat_small:
            small_passes(perf_counter() + SMALL_SHARE * (perf_counter() - t0))
        last_round = perf_counter() - t0
    if repeat_small and perf_counter() + last_small <= deadline:
        small_passes(deadline)
    return tally, small, pass_counts


def end_to_end_metrics(tally, instances, small, setup_s):
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (tally.seconds(instances), "s"),
        "small_s": (tally.seconds(small), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer_metrics(tally, instances, recorder, pass_counts):
    per_pass = recorder.self_times()
    passes = range(len(pass_counts))

    def median_over_passes(value):
        return statistics.median(value(i) for i in passes)

    def group(i, name):
        return per_pass.get(i, {}).get(name, [0.0, 0])

    out = {}
    for name in spans.LAYERS:
        out[f"{name}_ms"] = (median_over_passes(lambda i: 1000.0 * group(i, name)[0]), "ms")
        out[f"{name}_calls"] = (median_over_passes(lambda i: group(i, name)[1]), "count")
    counts = pass_counts[0]
    for i in passes:
        if pass_counts[i] != counts:
            tally.messages.append(f"work counters differ between passes 0 and {i}")
            tally.failed += 1
    n = len(instances)
    certificates = group(0, "lattice.certificate")[1]
    pairs = counts["loops.pairs_counted"]
    nonzero = counts["loops.pairs_nonzero"]
    for name, unit in spans.COUNT_METRICS.items():
        out[name] = (counts[name], unit)
    out["loops.trace_calls_per_instance"] = (group(0, "loops.trace")[1] / n, "ratio")
    out["loops.pairs_nonzero_ratio"] = (nonzero / pairs if pairs else 0.0, "ratio")
    out["lattice.link_arith_calls_per_certificate"] = (
        group(0, "lattice.link_arith")[1] / certificates if certificates else 0.0,
        "ratio",
    )
    out["bench.traced_pass_s"] = (tally.seconds(instances), "s")
    bases = {
        "loops.trace_calls_per_instance": f"{n} instances",
        "loops.pairs_nonzero_ratio": f"{nonzero} nonzero of {pairs} pairs",
        "lattice.link_arith_calls_per_certificate": f"{certificates} certificates",
    }
    return out, bases


def write_trace(path, workload, seed, recorder, bases):
    path.parent.mkdir(exist_ok=True)
    doc = {
        "workload": workload,
        "seed": seed,
        "ratio_bases": bases,
        "instances": recorder.instances,
        "shapes": {key: list(shape) for key, shape in sorted(recorder.shapes.items())},
        "span_fields": ["name", "start", "end", "parent", "instance", "excluded"],
        "spans": recorder.spans,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up once, print the set-up seconds and exit",
    )
    return parser.parse_args(argv)


def set_up(args, workdir):
    """(modules, instances, scaled seconds) of one import of fqsurf plus
    input generation."""
    golden = load_golden()
    reference = reference_seconds()
    t0 = perf_counter()
    mods = import_fqsurf()
    instances = workloads.build(args.workload, mods, golden, random.Random(args.seed), str(workdir))
    return mods, instances, (perf_counter() - t0) * REF_S / reference


def setup_in_child(args):
    """Set-up seconds of one fresh process; None when it failed."""
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--setup-only",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        print(proc.stderr.strip(), file=sys.stderr)
        return None
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    try:
        mods, instances, seconds = set_up(args, workdir)
    except ImportError as exc:
        print(f"error: cannot import fqsurf from {SRC}: {exc}", file=sys.stderr)
        shutil.rmtree(workdir, ignore_errors=True)
        return 2
    if args.setup_only:
        shutil.rmtree(workdir, ignore_errors=True)
        print(seconds)
        return 0
    setup_times = [seconds]
    if not args.trace:
        setup_times += [setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
        if None in setup_times:
            shutil.rmtree(workdir, ignore_errors=True)
            return 2

    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        recorder.install(mods, lambda msg: print(msg, file=sys.stderr))
    try:
        tally, small, pass_counts = measure(instances, args.seconds, recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bases = {}
    if recorder is None:
        metrics = end_to_end_metrics(tally, instances, small, statistics.median(setup_times))
    else:
        metrics, bases = per_layer_metrics(tally, instances, recorder, pass_counts)
        write_trace(OUT / f"trace-{args.workload}-seed{args.seed}.json", args.workload, args.seed, recorder, bases)

    for msg in tally.messages[:50]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(pass_counts)} whole passes "
        f"of {len(instances)} instances, {tally.attempted} operations, {tally.failed} failed "
        f"(failed_ops {tally.failed / tally.attempted:.4f}); reference loop median "
        f"{1000 * statistics.median(tally.references):.4f} ms, scaled to {1000 * REF_S} ms"
    )
    for name, (value, unit) in metrics.items():
        base = f" (base: {bases[name]})" if name in bases else ""
        print(f"  {name} = {value} {unit}{base}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

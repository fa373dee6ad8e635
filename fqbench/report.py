"""Run every fqsurf benchmark workload and print all its metrics with units.

    python3 fqbench/report.py [--seed N] [--record] [--pin]

Each workload runs in its own process through run.py, for the
``run_seconds`` of BENCHMARK.json, once untraced for
the end-to-end metrics and once traced for the per-layer metrics.  The
tracing overhead is the traced pass time over the untraced one, minus one.
``failed_ops`` is the share of attempted operations whose output check
failed, over both runs.  The exit code is 1 if any run failed a check or
did not finish.

``--record`` writes baseline.json: the machine, every instance's shape
(F, E, V, loops) and every metric of this report.  ``--pin`` rewrites the
sha256 digests in golden.json from the library's current output; use it
only when a change to certificate or verdict bytes is intended.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600


def run_workload(workload, seed, seconds, trace):
    """(exit code, result object or None, stderr) of one run.py process."""
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, proc.stderr


def pin():
    sys.path.insert(0, str(ROOT / "src"))
    import run

    docs = workloads.pinned_documents(run.import_fqsurf())
    doc = {
        "about": "sha256 of canonical JSON certificate and verdict documents; see report.py --pin",
        "digests": {name: workloads.digest(text) for name, text in sorted(docs.items())},
    }
    with open(HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(docs)} documents in {HERE / 'golden.json'}")


def value(result, name):
    return result["metrics"][name]["value"]


def print_workload(workload, plain, traced, bases):
    print(f"\n== {workload}")
    for name, metric in plain["metrics"].items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    print(f"  {'failed_ops':<48} {failed / attempted:>14.6g} share ({failed} of {attempted})")
    overhead = value(traced, "bench.traced_pass_s") / value(plain, "pass_s") - 1.0
    print(f"  {'tracing_overhead':<48} {overhead:>14.6g} ratio")
    layer_ms = {
        name[: -len("_ms")]: metric["value"]
        for name, metric in traced["metrics"].items()
        if name.endswith("_ms")
    }
    total = sum(layer_ms.values()) or 1.0
    print("  leading layers by self time per traced pass:")
    for name, ms in sorted(layer_ms.items(), key=lambda kv: -kv[1])[:6]:
        print(f"    {name:<46} {ms:>14.6g} ms  {100.0 * ms / total:5.1f}%")
    print("  per layer (traced run, per pass):")
    for name, metric in traced["metrics"].items():
        if metric["value"]:
            base = f"  (base: {bases[name]})" if name in bases else ""
            print(f"    {name:<46} {metric['value']:>14.6g} {metric['unit']}{base}")
    return failed, attempted, overhead


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    if args.pin:
        pin()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    ok = True
    baseline = {}
    for workload in workloads.WORKLOADS:
        runs = []
        for trace in (0, 1):
            code, result, stderr = run_workload(workload, args.seed, seconds, trace)
            if code != 0 or result is None:
                ok = False
                print(f"{workload} trace={trace}: exit {code}\n{stderr.strip()}", file=sys.stderr)
            runs.append(result)
        if None in runs:
            continue
        trace_file = ROOT / ".fqbench" / f"trace-{workload}-seed{args.seed}.json"
        with open(trace_file, encoding="utf-8") as fh:
            trace = json.load(fh)
        shapes = trace["shapes"]
        failed, attempted, overhead = print_workload(workload, *runs, trace["ratio_bases"])
        baseline[workload] = {
            "end_to_end": runs[0]["metrics"],
            "failed_ops": {"value": failed / attempted, "unit": "share", "attempted": attempted},
            "tracing_overhead": {"value": overhead, "unit": "ratio"},
            "per_layer": runs[1]["metrics"],
            "ratio_bases": trace["ratio_bases"],
            "instances_F_E_V_loops": shapes,
        }

    if args.record and ok:
        doc = {
            "machine": {
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "platform": platform.platform(terse=True),
            },
            "seed": args.seed,
            "run_seconds": seconds,
            "workloads": baseline,
        }
        with open(HERE / "baseline.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nrecorded {HERE / 'baseline.json'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

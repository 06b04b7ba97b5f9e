#!/usr/bin/env python3
"""Performance ledger for the stateless-computation library.

Run from the root of a source tree:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds the library, the CLI and the OCaml benchmark driver
(perfbench/perfbench.exe) from source with dune, runs workload W for S
seconds of timed passes on inputs derived from seed N, and prints as its
last stdout line one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json
with tracing off; --trace 1 is the separate traced run that reports the
per-layer metrics and writes a Chrome trace-event file under _perfbench/.
Per-layer metrics that the workload does not measure (it never calls
that layer from outside) are reported as 0. Earlier stdout lines carry
the run's provenance. The exit code is 0 only when every output check
passed.

--smoke runs every workload once at tiny sizes, traced and untraced, and
asserts that every metric named in BENCHMARK.json is printed by name with
its unit: every end-to-end metric by every workload, every per-layer
metric by at least one.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

TARGETS = ("perfbench/perfbench.exe", "bin/stateless_cli.exe")
EXE, CLI = ("_build/default/" + t for t in TARGETS)
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")


def build():
    for path in ("dune-project", "bin/stateless_cli.ml", "lib", "perfbench/dune"):
        if not os.path.exists(path):
            die(f"{path} is missing: run from the root of the source tree")
    cmd = ["dune", "build", "--root", ".", "--cache=disabled"]
    cmd += ["./" + t for t in TARGETS]
    try:
        r = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                           stderr=sys.stderr)
    except OSError as e:
        die(f"cannot run dune: {e}")
    if r.returncode != 0:
        die("build failed")


def source_digest():
    """SHA-256 over the program's sources, so results stay attributable
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    paths = ["dune-project"]
    for top in ("lib", "bin"):
        for d, _, files in os.walk(top):
            paths += [os.path.join(d, f) for f in files]
    for p in sorted(paths):
        h.update(p.encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_exe(workload, seed, seconds, trace, smoke, digest):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--cli", CLI,
           "--source", digest]
    if smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    if r.returncode not in (0, 1) or not lines:
        die(f"{workload} exited with {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die(f"{workload} printed no result")
    return lines[:-1], result, r.returncode


def complete(spec, result, trace):
    """Orders the metrics as BENCHMARK.json lists them and checks each
    name and unit. Every end-to-end metric must be printed; per-layer
    metrics the workload did not measure are reported as 0."""
    expected = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    for name, m in got.items():
        if units.get(name) != m["unit"]:
            die(f"metric {name} ({m['unit']}) is not in BENCHMARK.json with that unit")
    missing = [n for n in units if n not in got]
    if missing and not trace:
        die(f"metrics not printed: {', '.join(missing)}")
    metrics = {n: got.get(n, {"value": 0, "unit": units[n]}) for n in units}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def smoke(spec, digest):
    measured = set()
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            _, result, code = run_exe(w["name"], 1, 1, trace, True, digest)
            complete(spec, result, trace)
            measured |= set(result["metrics"])
            status = "ok" if code == 0 and result["correct"] else "FAILED"
            ok &= status == "ok"
            print(f"{w['name']:18} trace={trace} {status} "
                  f"({result['attempted']} checks, {len(result['metrics'])} metrics)")
    unmeasured = [m["name"] for m in spec["per_layer"] if m["name"] not in measured]
    if unmeasured:
        ok = False
        print("per-layer metrics no workload measures: " + ", ".join(unmeasured))
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    if not args.smoke:
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names or args.seed is None or args.trace is None \
                or args.seconds is None or args.seconds < 1:
            die("need --workload (one of " + ", ".join(names)
                + "), --seed, --seconds >= 1 and --trace 0|1, or --smoke")
    build()
    digest = source_digest()
    if args.smoke:
        return smoke(spec, digest)
    head, result, code = run_exe(args.workload, args.seed, args.seconds,
                                 args.trace, False, digest)
    final = complete(spec, result, args.trace)
    for line in head:
        print(line)
    print(json.dumps(final), flush=True)
    return 0 if code == 0 and final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

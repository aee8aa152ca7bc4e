#!/usr/bin/env python3
"""Tiny-size smoke run of the cllm benchmark.

Run from the repository root:

    python3 perfbench/smoke.py

Checks BENCHMARK.json against its format limits, then runs every
workload at smoke sizes (--tiny) untraced and traced, and checks that
each run exits 0, reports correct, and emits exactly the metrics the
file names for that mode, each with its declared unit. Takes well under
a minute once the benchmark is built.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    errors = []
    seen = set()
    for kind in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[kind]:
            name = entry["name"]
            if not NAME.match(name) or name in seen:
                errors.append("bad or repeated name %r" % name)
            seen.add(name)
            if "unit" in entry and not UNIT.match(entry["unit"]):
                errors.append("bad unit for %s" % name)
            if "why" in entry and (len(entry["why"]) > 200
                                   or "\n" in entry["why"]):
                errors.append("why of %s too long" % name)
            if entry.get("bound", 0) > 0.25:
                errors.append("bound of %s above 0.25" % name)
    if not any(m["name"] == "setup_s" for m in spec["end_to_end"]):
        errors.append("setup_s missing")
    return errors


def run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "2", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return out.returncode, result, out.stdout + out.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = check_spec(spec)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        for w in spec["workloads"]:
            rc, result, log = run(w["name"], trace)
            tag = "%s trace=%d" % (w["name"], trace)
            if rc != 0 or result is None or not result["correct"]:
                errors.append("%s failed (exit %d)\n%s" % (tag, rc, log))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in set(want) & set(got)
                               if want[k] != got[k])
                errors.append("%s: missing %s extra %s wrong unit %s"
                              % (tag, missing, extra, wrong))
            print("ok   %s: %d metrics, %d attempted, %d failed"
                  % (tag, len(got), result["attempted"], result["failed"]))
    for e in errors:
        print("FAIL " + e)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()

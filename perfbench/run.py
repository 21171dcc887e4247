#!/usr/bin/env python3
"""Stream-replay benchmark of the k-SIR engine.

Builds the harness (perfbench/build.sbt, which loads the repository's root
project as a source dependency) when its sources changed, then runs one
measured replay in a fresh JVM with a fixed heap and collector:

    python3 perfbench/run.py --workload tw-query --seed 1 --seconds 10 --trace 0

Run from the repository root. The last line of standard output is the JSON
result; see perfbench/README.md for the workloads and metric names.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH = pathlib.Path(__file__).resolve().parent
OUT = ROOT / ".bench_build" / "perfbench"
CLASSPATH = BENCH / "target" / "classpath.txt"
STAMP = OUT / "build.stamp"
WORKLOADS = ("tw-query", "am-dense", "rd-ingest")

# Fixed heap (-Xms = -Xmx) and collector, so runs differ only in their inputs.
JVM_FLAGS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:ParallelGCThreads=2",
             "-Dfile.encoding=UTF-8"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_inputs():
    """Files whose change requires a rebuild; fails if the program is absent."""
    required = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
                BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    missing = [str(p.relative_to(ROOT)) for p in required if not p.is_file()]
    if missing or not (ROOT / "src" / "main" / "scala").is_dir():
        sys.exit("perfbench: the repository's sources are missing (%s); run from the repository root"
                 % ", ".join(missing or ["src/main/scala"]))
    files = list(required)
    for d in (ROOT / "project", BENCH / "project"):
        files += sorted(p for p in d.glob("*") if p.is_file() and p not in required)
    for d in (ROOT / "src" / "main", ROOT / "jobs", BENCH / "src"):
        if d.is_dir():
            files += sorted(p for p in d.rglob("*") if p.is_file())
    return files


def build():
    digest = hashlib.sha256()
    for f in build_inputs():
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    stamp = digest.hexdigest()
    if CLASSPATH.is_file() and STAMP.is_file() and STAMP.read_text() == stamp:
        return CLASSPATH.read_text().strip()
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
           "compile", "benchClasspath"]
    try:
        done = subprocess.run(cmd, cwd=BENCH, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: build timed out")
    (OUT / "build.log").write_text(done.stdout)
    if done.returncode != 0 or not CLASSPATH.is_file():
        sys.stderr.write(done.stdout[-4000:])
        sys.exit("perfbench: build failed (exit %d)" % done.returncode)
    STAMP.write_text(stamp)
    return CLASSPATH.read_text().strip()


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    classpath = build()
    cmd = (["java"] + JVM_FLAGS + ["-Dperfbench.commit=" + commit(), "-cp", classpath, "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", args.trace, "--out", str(OUT), "--digests", str(BENCH / "digests.json")])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    log = OUT / "runs" / ("%s-s%d-t%s.txt" % (args.workload, args.seed, args.trace))
    log.parent.mkdir(parents=True, exist_ok=True)
    log.write_text(out)
    if proc.returncode != 0:
        sys.stdout.write(out)
        sys.exit("perfbench: harness exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write(out)
        sys.exit("perfbench: harness printed no result line")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Benchmark runner: builds the repository with the benchmark's own sbt
project, then runs one workload in one JVM and relays its result.

    python3 perfbench/run.py --workload live-plan --seed 1 --seconds 10 --trace 0

Run it from the repository root. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
Build output, data and spans stay under .bench_build (or CARGO_TARGET_DIR).
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("live-plan", "offline-eval")
RUN_LIMIT_S = 175      # a run must end within 180 s
BUILD_LIMIT_S = 850    # the first run of a checkout may take 900 s

# Spark's JDK-17 module openings, as in the repository's build.sbt.
OPENS = [f"--add-opens={m}=ALL-UNNAMED" for m in (
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5")]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources(root):
    """Every file the build reads, in a stable order."""
    files = [root / "perfbench/build.sbt", root / "perfbench/project/build.properties"]
    for d in ("src/main", "perfbench/src/main"):
        files += sorted(p for p in (root / d).rglob("*") if p.is_file())
    return files


def stamp(root):
    h = hashlib.sha256()
    for f in sources(root):
        h.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def build(root, out):
    """Compile with sbt once per source state; return the runtime classpath."""
    cp_file, stamp_file = out / "classpath.txt", out / "stamp.txt"
    want = stamp(root)
    if cp_file.exists() and stamp_file.exists() and stamp_file.read_text() == want:
        return cp_file.read_text().strip()
    env = dict(os.environ, COURSIER_MODE="offline")
    repos = Path.home() / ".sbt" / "repositories"
    if "SBT_OPTS" not in env and repos.exists():
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true -Dsbt.offline=true "
                           f"-Dsbt.repository.config={repos}")
    # sbt's global state goes under the build directory, not the home directory.
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={out / 'sbt-global'}", "export Runtime/fullClasspath"]
    print("perfbench: building with sbt", file=sys.stderr)
    p = subprocess.run(cmd, cwd=root / "perfbench", env=env, stdout=subprocess.PIPE,
                       stdin=subprocess.DEVNULL, text=True, timeout=BUILD_LIMIT_S)
    lines = [l for l in p.stdout.splitlines() if "perfbench/target" in l and not l.startswith("[")]
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout[-4000:])
        fail(f"build failed (sbt exit {p.returncode})")
    out.mkdir(parents=True, exist_ok=True)
    cp_file.write_text(lines[-1].strip())
    stamp_file.write_text(want)
    return lines[-1].strip()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src/main/scala/repro").is_dir() or not (root / "perfbench/build.sbt").is_file():
        fail("run from the repository root: the repository's sources are missing")
    out = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    classpath = build(root, out)

    started = time.monotonic()
    work = out / "work" / f"{args.workload}-{os.getpid()}"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    spans = out / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    cmd = ["java", *OPENS, "-Xmx3g", f"-Djava.io.tmpdir={tmp}", "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--work", str(work),
           "--fixture", str(root / "perfbench/fixture/sf100.txt"), "--spans", str(spans)]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail("workload did not finish in time")
    shutil.rmtree(work, ignore_errors=True)

    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        fail(f"workload exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()

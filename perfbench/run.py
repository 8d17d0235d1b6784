#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <ctr-ssp|ctr-tiered|kg-transe> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The benchmark is its own Cargo
package (perfbench/Cargo.toml) that builds against the repository's crates
by path, in release mode, offline, into $CARGO_TARGET_DIR (default
.bench_build). A build is skipped when no source file changed since the last
one. Outputs (reports, span traces, tiered spill files) go under
<target dir>/perfbench-out. The last line of standard output is the result
object; see perfbench/README.md.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
# Inputs of the build: the benchmark package and everything it compiles.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "third_party", "perfbench/Cargo.toml",
           "perfbench/Cargo.lock", "perfbench/src"]
RUN_TIMEOUT_S = 170


def fingerprint():
    """Digest of every build input's path and contents."""
    h = hashlib.sha256()
    for rel in SOURCES:
        path = ROOT / rel
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            if not f.exists():
                continue
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def build(target_dir):
    """Builds the benchmark binary unless an up-to-date one exists."""
    binary = target_dir / "release" / "hetgmp-perfbench"
    stamp = target_dir / "perfbench.stamp"
    digest = fingerprint()
    if binary.exists() and stamp.exists() and stamp.read_text() == digest:
        return binary
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    # Cargo's own output goes to stderr so the result stays the last
    # stdout line.
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(BENCH / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {done.returncode})")
    stamp.write_text(digest)
    return binary


def main():
    if not (ROOT / "crates" / "core" / "Cargo.toml").exists():
        sys.exit("perfbench: the repository's crates/ are missing; nothing to benchmark")
    target_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(target_dir)
    out_dir = target_dir / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    # Keep every temporary file the program makes inside the checkout.
    env = dict(os.environ, TMPDIR=str(out_dir))
    try:
        done = subprocess.run([str(binary), *sys.argv[1:], "--out-dir", str(out_dir)],
                              cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build she_server and she_bench from this checkout, then run one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

The build goes to $CARGO_TARGET_DIR/she_bench (default .bench_build/she_bench
under the repository root) and is reused when up to date.  --trace 0 runs the
workload with tracing off and reports the end-to-end metrics; --trace 1
reports the per-layer metrics instead, splitting --seconds between an
untraced and a traced pass.  Every pass is preceded by a 2 s warm-up.

she_bench's output is passed through; its last line is the result JSON.
Exits non-zero, printing no result, when the sources or the build are
missing or broken.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WARMUP_S = 2


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "she_bench"


def build(bdir):
    if not (ROOT / "src" / "server" / "she_server_main.cpp").is_file():
        sys.exit("run.py: no repository sources next to bench/e2e; nothing to build")
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "--target", "she_bench",
                    "-j", str(os.cpu_count() or 2)],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write she_bench's result file here")
    args = ap.parse_args()

    bdir = build_dir()
    try:
        build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    seconds = args.seconds / 2 if args.trace else args.seconds
    cmd = [str(bdir / "she_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--duration", str(seconds),
           "--warmup", str(WARMUP_S), "--work-dir", str(bdir / "work")]
    if args.trace:
        cmd.append("--traced")
    if args.out:
        cmd += ["--out", args.out]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

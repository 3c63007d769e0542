#!/usr/bin/env python3
"""Build the SmartSAGE end-to-end benchmark from source, then run it.

Usage (from the root of a source checkout):

    python3 sagebench/run.py --workload narrow|wide --seed N \
        --seconds S --trace 0|1
    python3 sagebench/run.py --selftest

The first call configures and compiles the library plus the benchmark
into `.bench_build/sagebench` (or `$CARGO_TARGET_DIR/sagebench` when
that is set); later calls only re-check the build. Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. Traced runs write their Chrome trace and per-layer files
under the build directory's `out/`.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "sagebench"


def build(out: Path) -> Path:
    jobs = str(max(1, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "sagebench"


def main() -> int:
    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"sagebench: build failed: {err}", file=sys.stderr)
        return 2
    args = [str(binary), *sys.argv[1:], "--out-dir", str(out / "out")]
    return subprocess.run(args, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())

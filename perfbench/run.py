#!/usr/bin/env python3
"""Build and run the seeded IPComp benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload write-dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/CMakeLists.txt (the library
from src/ plus the benchmark) in $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls rebuild only
what changed.  Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result.  Span dumps and scratch
archives go to <build dir>/out.  Exits nonzero without a result when the
build fails (e.g. when the library sources are missing).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def run_quiet(cmd, env=None):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode == 0


def build(bdir, targets):
    # Compiler temporaries stay inside the build tree, not in /tmp.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd, env):
            shutil.rmtree(bdir, ignore_errors=True)  # no half-configured cache
            return False
    cmd = ["cmake", "--build", bdir, "-j", str(min(4, os.cpu_count() or 1))]
    for t in targets:
        cmd += ["--target", t]
    return run_quiet(cmd, env)


def main(argv):
    bdir = build_dir()
    if argv == ["--selftest"]:
        if not build(bdir, ["perfbench", "perfbench_selftest"]):
            print("perfbench: build failed", file=sys.stderr)
            return 2
        ok = run_quiet(["ctest", "--test-dir", bdir, "--output-on-failure"])
        cat = subprocess.run([os.path.join(bdir, "perfbench"), "--catalogue"],
                             capture_output=True, text=True, check=True).stdout
        ok = check_catalogue(cat) and ok
        return 0 if ok else 1

    if not build(bdir, ["perfbench"]):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    out_dir = os.path.join(bdir, "out")
    cmd = [os.path.join(bdir, "perfbench")] + argv + ["--out-dir", out_dir]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


def check_catalogue(text):
    """BENCHMARK.json and layers.json must list what the binary emits."""
    import json

    cat = json.loads(text)
    ok = True
    bench = os.path.join(HERE, "..", "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench) as f:
            b = json.load(f)
        for key in ("end_to_end", "per_layer"):
            want = [{k: m[k] for k in ("name", "unit", "better", "bound") if k in m}
                    for m in cat[key]]
            if b[key] != want:
                print("BENCHMARK.json %s differs from perfbench --catalogue" % key,
                      file=sys.stderr)
                ok = False
    with open(os.path.join(HERE, "layers.json")) as f:
        if json.load(f) != cat:
            print("layers.json differs from perfbench --catalogue", file=sys.stderr)
            ok = False
    print("catalogue check: %s" % ("ok" if ok else "FAILED"))
    return ok


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

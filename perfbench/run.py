#!/usr/bin/env python3
"""Build the daemons and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload hot-mix --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds `lca-serve` and `lca-gateway` from
the repository's workspace and `lca-perfbench` from `perfbench/Cargo.toml`
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs
`lca-perfbench` with the given arguments. Its last stdout line is the JSON
result. Exits non-zero, without a result line, when anything fails to build.
"""

import os
import signal
import subprocess
import sys

# A run ends within 180 s; the benchmark itself needs well under half that.
RUN_TIMEOUT_S = 170


def build(cmd, cwd, env):
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
        sys.exit(proc.returncode or 1)


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        sys.stderr.write("perfbench: no Cargo.toml at %s; run from a full checkout\n" % root)
        sys.exit(1)
    build(["cargo", "build", "--release", "--offline", "--quiet",
           "-p", "lca-serve", "-p", "lca-fleet", "--bins"], root, env)
    build(["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(bench_dir, "Cargo.toml")], root, env)
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "lca-perfbench")] + sys.argv[1:] + [
        "--bin-dir", release, "--out-dir", os.path.join(target, "perfbench")]
    # Own process group, so a timeout also takes down the daemons it spawned.
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build` at the root).
Cargo's output goes to standard error, so the last line of standard output
is the benchmark's JSON result. Exits non-zero, printing no result, when
the build or the run fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The run itself must end within 180 s; leave the build check its share.
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    run = subprocess.Popen([exe] + sys.argv[1:], env=env, stdin=subprocess.DEVNULL)
    try:
        return run.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # Freeze the benchmark so it starts no more campaign parts, kill
        # the part it is running, then the benchmark itself.
        os.kill(run.pid, signal.SIGSTOP)
        for pid in children(run.pid):
            os.kill(pid, signal.SIGKILL)
        run.kill()
        run.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def children(pid):
    """Process ids whose parent is `pid`, from /proc."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # The field after the parenthesised command name is the state,
        # then the parent's pid.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry))
    return out


if __name__ == "__main__":
    sys.exit(main())

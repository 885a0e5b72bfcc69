#!/usr/bin/env python3
"""Build trisolv and the benchmark harness from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload hot_solve --seed 1 --seconds 48 --trace 0

Both builds share one target directory: CARGO_TARGET_DIR if it is set
(a relative path is taken from the repository root), else target/ under
the repository root. Build output goes to stderr, so the last line of
standard output is the harness's JSON result. Exits non-zero, without a
result, when the repository sources are missing or a build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def revision():
    """The git sha, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in sorted(files):
            if f.endswith((".rs", ".toml", ".lock")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def build(args, target):
    """Run one cargo build into `target` with its output on stderr; True on
    success."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                          cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def main():
    manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(manifest):
        print("perfbench: no Cargo.toml at the repository root; nothing to build",
              file=sys.stderr)
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or "target")
    if not build(["--manifest-path", manifest, "--bin", "trisolv"], target):
        return 2
    if not build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], target):
        return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "trisolv-perfbench")] + sys.argv[1:] + [
        "--server-bin", os.path.join(release, "trisolv"),
        "--rev", revision(),
        "--out-dir", os.path.join(HERE, "out"),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

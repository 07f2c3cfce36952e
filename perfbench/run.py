#!/usr/bin/env python3
"""Build and run the hodlr-rs benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds the `perfbench` package in
release mode (into $CARGO_TARGET_DIR, default perfbench/target), runs it,
and passes its standard output through: the last line is the result
object.  The build settings and the commit are handed to the binary for
the machine fingerprint; every run's record (fingerprint, result and, for
traced runs, the spans) is also written to <target>/perfbench-runs/.
"""

import os
import subprocess
import sys
from pathlib import Path

# A run must end within 180 s; stop the benchmark before that.
RUN_TIMEOUT_S = 170


def git_commit(root: Path) -> str:
    """The checked-out commit, read without running git; "unknown" outside
    a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    manifest = root / "perfbench" / "Cargo.toml"
    target = Path(os.environ.get("CARGO_TARGET_DIR", root / "perfbench" / "target"))
    if not target.is_absolute():
        target = Path.cwd() / target

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(manifest)],
        cwd=root, stdout=sys.stderr, env={**os.environ, "CARGO_TARGET_DIR": str(target)},
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return build.returncode

    rustflags = os.environ.get("RUSTFLAGS", "")
    command = [
        str(target / "release" / "perfbench"), *sys.argv[1:],
        "--out", str(target / "perfbench-runs"),
        "--commit", git_commit(root),
        "--rustflags", rustflags,
    ]
    try:
        run = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

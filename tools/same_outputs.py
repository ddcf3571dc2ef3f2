"""Check that another source tree gives byte-identical CLI outputs on the
benchmark workloads.

    python3 tools/same_outputs.py OTHER_TREE

For each workload of perfbench/workloads.py at seeds 0 and 1, the phasefrac
CLI runs the workload's command, and then `check` and `sharp`, on the same
generated config.  It also runs `sharp` on AFFINE_SHARP, the one config with
a nonzero sharp elastic term.  Each run goes once with this tree's src/ and
once with OTHER_TREE's src/, both with the same --out path.
Every output file, stdout, stderr and the exit code are compared byte for
byte; each difference is named.  Exit code 0 when all are equal, 1 otherwise.
Standard library only; perfbench/ is read, never written.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (0, 1)
# a 2D affine strain with off-diagonal terms, a full e0 and lambda > 0, so that
# every strain plane and the trace term reach the sharp elastic energy
AFFINE_SHARP = """[elastic]
lame_lambda = 0.3
lame_mu = 0.7
e0 = 0.8 0.1 -0.2

[geometry]
dim = 2
polygon = 0.5 0  1 0  1 1  0.5 1
segments = 0.5 0.25 0.5 0.75
u_spec = affine
affine_matrix = 0.3 -0.7 0.45 0.1
affine_offset = 0.1 -0.2
"""


def run_cli(tree: str, command: str, config: str, out: str) -> dict[str, bytes]:
    """Run `phasefrac COMMAND --config CONFIG --out OUT` from `tree`'s src/ and
    return its exit code, stdout, stderr and every file under OUT, keyed by
    name.  OUT is removed before and after the run."""
    config, out = os.path.abspath(config), os.path.abspath(out)
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "phasefrac.cli", command, "--config", config, "--out", out],
        capture_output=True, env=env, cwd=os.path.dirname(config))
    outputs = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
               "stderr": proc.stderr}
    for folder, _, names in os.walk(out):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                outputs[os.path.relpath(path, out)] = fh.read()
    shutil.rmtree(out, ignore_errors=True)
    return outputs


def differences(mine: dict[str, bytes], other: dict[str, bytes]) -> list[str]:
    """One line per output that differs or that only one side has; a
    differing text names its first differing line."""
    found = []
    for key in sorted(mine.keys() | other.keys()):
        if key not in other:
            found.append(f"{key}: only in this tree")
        elif key not in mine:
            found.append(f"{key}: only in the other tree")
        elif mine[key] != other[key]:
            a, b = mine[key].splitlines(), other[key].splitlines()
            k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            found.append(f"{key}: line {k + 1} differs ({len(a)} lines here, {len(b)} there)")
    return found


def compare(other_tree: str, command: str, config_text: str) -> list[str]:
    """Run `command` on `config_text` from this tree and from `other_tree`,
    in one scratch directory, and return `differences` of the two."""
    with tempfile.TemporaryDirectory() as work:
        config = os.path.join(work, "run.ini")
        with open(config, "w") as fh:
            fh.write(config_text)
        out = os.path.join(work, "out")
        return differences(run_cli(ROOT, command, config, out),
                           run_cli(other_tree, command, config, out))


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not os.path.isdir(os.path.join(argv[0], "src", "phasefrac")):
        print("usage: python3 tools/same_outputs.py OTHER_TREE  (a tree holding "
              "src/phasefrac)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS, make_config

    runs = [(f"{name} seed {seed} {command}", command, make_config(name, seed))
            for name, workload in WORKLOADS.items()
            for seed in SEEDS for command in (workload.command, "check", "sharp")]
    runs.append(("affine sharp", "sharp", AFFINE_SHARP))
    failed = 0
    for label, command, config_text in runs:
        found = compare(argv[0], command, config_text)
        print(f"{label}: {'same' if not found else 'DIFFERENT'}")
        for line in found:
            print(f"  {line}")
        failed += bool(found)
    print(f"{failed} of {len(runs)} runs differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

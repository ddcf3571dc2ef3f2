"""Self-test of the benchmark at smoke sizes (about a minute).

    python3 perfbench/selftest.py

Run from the root of a phasefrac checkout.  It checks that every metric
named in BENCHMARK.json is emitted with its unit, for every workload, traced
and untraced; and that each correctness gate fails loudly on a corrupted
output (truncated field file, padded field file, altered value,
non-monotone trajectory, trajectory cut short, failed sweep row), after
passing on the intact one.
Verdicts are raised as SelfTestError, never with `assert`.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gates  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SelfTestError(AssertionError):
    pass


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SelfTestError(msg)


def check_metrics(root: str, spec: dict) -> None:
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            rec = bench.run(root, name, seed=0, seconds=0.0, trace=trace, smoke=True)
            line = rec["line"]
            check(line["correct"] and line["failed"] == 0,
                  f"{name} trace={trace}: smoke run not correct: "
                  f"{[op['failures'] for op in rec['ops']]}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in line["metrics"].items()}
            check(got == want, f"{name} trace={trace}: metrics differ from "
                               f"BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
                               f"extra {sorted(set(got) - set(want))}, units "
                               f"{ {k: (got[k], want[k]) for k in got if k in want and got[k] != want[k]} }")
            check(all(isinstance(m["value"], (int, float)) for m in line["metrics"].values()),
                  f"{name}: a metric value is not a number")
            print(f"ok   {name} trace={int(trace)}: {len(got)} metrics with units")


def fresh_outputs(root: str, name: str):
    """One op's output directory at smoke size, and the gate reference."""
    r = bench.Run(root, name, seed=0, trace=False, smoke=True)
    ref = gates.reference(name, bench.load_cfg(r.src, r.config))
    out = os.path.join(r.dir, "op")
    rec, _ = r.spawn(["--readback"] if r.w.readback else [], out)
    check(rec.get("rc") == 0, f"{name}: smoke op failed: {rec}")
    return r, out, ref


def corrupted(src_dir: str, dst_dir: str, fname: str, edit) -> str:
    shutil.rmtree(dst_dir, ignore_errors=True)
    shutil.copytree(src_dir, dst_dir)
    path = os.path.join(dst_dir, fname)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(edit(text))
    return dst_dir


def expect_failure(name: str, out: str, ref: dict, what: str, needle: str) -> None:
    fails = gates.check(name, out, ref)
    check(bool(fails), f"{name}: gate passed a {what}")
    check(any(needle in f for f in fails), f"{name}: {what} not named: {fails}")
    print(f"ok   {name}: gate fails on {what}: {fails[0]}")


def drop_last_value(text: str) -> str:
    return text[:text.rstrip("\n").rfind("\n") + 1]


def raise_energy(text: str) -> str:
    lines = text.splitlines()
    cols = lines[2].split(",")
    cols[-1] = repr(float(cols[-1]) * 1.01 + 1.0)
    lines[2] = ",".join(cols)
    return "\n".join(lines) + "\n"


def alter_value(text: str) -> str:
    lines = text.split("\n")
    lines[4] = repr(float(lines[4]) + 1e-9)
    return "\n".join(lines)


def fail_row(text: str) -> str:
    lines = text.splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",error:ResolutionError"
    return "\n".join(lines) + "\n"


def check_gates(root: str) -> None:
    runs = []
    try:
        for name, cases in (
            ("recover_2d", (
                ("c.field", "truncated field file", drop_last_value, "value lines"),
                ("c.field", "padded field file", lambda t: t + "0.5\n", "value lines"),
                ("u1.field", "altered field value", alter_value, "differs"))),
            ("minimize_1d", (
                ("trajectory.csv", "non-monotone trajectory", raise_energy, "not monotone"),
                ("c.field", "truncated field file", drop_last_value, "value lines"))),
            ("minimize_2d", (
                ("trajectory.csv", "trajectory cut short", drop_last_value, "fixed budget"),)),
            ("sweep_2d", (
                ("sweep.csv", "failed sweep row", fail_row, "not ok"),)),
        ):
            r, out, ref = fresh_outputs(root, name)
            runs.append(r)
            intact = gates.check(name, out, ref)
            check(intact == [], f"{name}: gate fails intact outputs: {intact}")
            for fname, what, edit, needle in cases:
                bad = corrupted(out, out + "-bad", fname, edit)
                expect_failure(name, bad, ref, what, needle)
    finally:
        for r in runs:
            shutil.rmtree(r.dir, ignore_errors=True)


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    try:
        check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
              "BENCHMARK.json workloads differ from workloads.py")
        check(all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"]),
              "BENCHMARK.json rationale differs from workloads.py")
        check_gates(root)
        check_metrics(root, spec)
    except SelfTestError as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

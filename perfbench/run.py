"""phasefrac benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/phasefrac);
see README.md beside this file for the workloads and what each metric means.
The benchmark writes the workload's INI config from the seed, then runs
operations -- one phasefrac CLI command each, in a fresh process, one at a
time -- until S seconds have passed (at least MIN_OPS of them).  The first
op's outputs go through the workload's correctness gate; every later op must
reproduce them byte for byte.

--trace 0 reports the end-to-end metrics: wall_s and setup_s are means over
the ops and set-ups, peak_rss_mb is a median.  Every time is first scaled by
its op's `scale`, which op.py measures with a calibration loop in the same
process, to seconds at the host's reference speed: the vCPUs of a shared
host speed up and slow down by up to 1.8x over seconds to minutes, and the
scaling takes most of that out.  The mean is used because the median of
such a mixture jumps between the fast and slow states, while the mean moves
smoothly with the share of slow time.  --trace 1 alternates untraced and traced ops
and reports the per-layer metrics of the traced ones (medians) plus
trace.overhead_s.  Failed ops (nonzero exit, failed gate,
differing bytes) are counted in `failed` and never dropped.  The last stdout
line is one JSON object with `correct`, `attempted`, `failed` and `metrics`;
a fuller record with provenance and every sample is written under
.perfbench_runs/.  Nothing about the machine is changed: no CPU pinning, no
cache dropping; noise is handled by repeats and the scaling above.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gates  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

MIN_OPS = 3
MIN_SETUPS = 7
OP_TIMEOUT_S = 150.0
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "energy_gap": "ratio"}
PER_LAYER_UNITS = {"s": "s", "self_s": "s", "calls": "count", "ms": "ms",
                   "mb": "MB", "mb_per_s": "MB/s", "ratio": "ratio"}
# the working set quoted with every result, in float64 fields of the grid; with
# an L3 of 105 MiB even the 1024^2 fields are partly cache-resident, so the
# benchmark claims no bandwidth figures
WORKING_SET = {
    "minimize_1d": "256 cells: 2 KiB per scalar field",
    "minimize_2d": "64^2 cells: 32 KiB scalar, 64 KiB vector, 128 KiB sym-tensor field",
    "sweep_2d": "1024^2 cells: 8 MiB scalar, 16 MiB vector, 32 MiB sym-tensor field; "
                "partly cache-resident, no bandwidth figures are claimed",
    "recover_2d": "512^2 cells: 2 MiB scalar, 8 MiB sym-tensor field; 4 dumped text "
                  "fields, ~3.9 MB in all; no bandwidth figures are claimed",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_ms"):
        return "ms"
    if last in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[last]
    if last.endswith("_ratio"):
        return "ratio"
    if last.endswith("_s"):
        return "s"
    return "count"


class Run:
    """One benchmark invocation: its directory, config, gate reference, ops."""

    def __init__(self, root: str, workload: str, seed: int, trace: bool, smoke: bool):
        self.root = root
        self.src = os.path.join(root, "src")
        self.w = WORKLOADS[workload]
        tag = f"{workload}-s{seed}-t{int(trace)}{'-smoke' if smoke else ''}"
        self.base = os.path.join(root, ".perfbench_runs")
        os.makedirs(self.base, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{tag}-", dir=self.base)
        self.result_path = os.path.join(self.base, f"{tag}.json")
        self.spans_path = os.path.join(self.base, f"{tag}.spans.json")
        if os.path.exists(self.spans_path):
            os.remove(self.spans_path)
        self.config = os.path.join(self.dir, "run.ini")
        with open(self.config, "w") as fh:
            fh.write(make_config(workload, seed, smoke))
        self.ops: list[dict] = []
        self.setups: list[float] = []
        self.digests = None

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src
        # one process at a time with no extra threads
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        return env

    def spawn(self, extra: list[str], out_dir: str) -> tuple[dict, float]:
        """Run op.py with `extra`; returns its JSON line and peak RSS in MB."""
        os.makedirs(out_dir, exist_ok=True)
        log = os.path.join(out_dir, "op.log")
        cmd = [sys.executable, os.path.join(HERE, "op.py"), "--src", self.src,
               "--config", self.config, "--command", self.w.command,
               "--out", out_dir] + extra
        with open(log, "w") as fh:
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env(), cwd=self.root)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(log) as fh:
            lines = fh.read().splitlines()
        try:
            rec = json.loads(lines[-1])
        except (IndexError, ValueError):
            rec = {"rc": None}
        if proc.returncode != 0:
            rec["rc"] = rec.get("rc") or f"process exit {proc.returncode}"
        rec["log_tail"] = lines[-5:]
        return rec, usage.ru_maxrss / 1024.0

    def op(self, traced: bool, ref: dict) -> dict:
        k = len(self.ops)
        out_dir = os.path.join(self.dir, f"op{k}")
        extra = ["--readback"] if self.w.readback else []
        if traced:
            extra += ["--trace-out", os.path.join(out_dir, "trace.json")]
        rec, rss = self.spawn(extra, out_dir)
        rec.update(index=k, traced=traced, peak_rss_mb=rss, failures=[])
        if rec.get("rc") != 0:
            rec["failures"].append(f"exit code {rec.get('rc')}: {rec['log_tail']}")
        else:
            self.setups.append(rec["setup_s"] * rec["scale"])
            digests = {}
            for name in self.w.outputs:
                with open(os.path.join(out_dir, name), "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
            if self.digests is None:
                # the first op is untraced; its outputs are checked in full and
                # every later op must reproduce them byte for byte
                rec["failures"] += gates.check(self.w.name, out_dir, ref)
                if not rec["failures"]:
                    rec["energy_gap"] = gates.energy_gap(self.w.name, out_dir, ref)
                    self.digests = digests
            else:
                differ = sorted(n for n in digests if digests[n] != self.digests[n])
                if differ:
                    what = "traced" if traced else "repeated"
                    rec["failures"].append(f"{what} op differs from op0 in {differ}")
            if traced and not rec["failures"]:
                trace_file = os.path.join(out_dir, "trace.json")
                with open(trace_file) as fh:
                    rec["layers"] = json.load(fh)["metrics"]
                if not os.path.exists(self.spans_path):
                    # keep the spans and kernel counters of the first traced op
                    shutil.copyfile(trace_file, self.spans_path)
        if k > 0 or rec["failures"]:
            shutil.rmtree(out_dir, ignore_errors=True)
        del rec["log_tail"]
        self.ops.append(rec)
        return rec


def load_cfg(src: str, config: str):
    sys.path.insert(0, src)
    from phasefrac import cli
    return cli.parse_config(config)


def provenance(root: str, seed: int, workload: str) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpuinfo("model name"),
        "l3_cache": _l3_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(root),
        "seed": seed,
        "working_set": WORKING_SET[workload],
        "machine_settings": "none touched: no CPU pinning, no cache dropping, no "
                            "frequency control; noise is handled by repeats and "
                            "by scaling each op's times with a calibration loop",
    }


def _cpuinfo(key: str) -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_size() -> str:
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            return fh.read().strip()
    except OSError:
        return _cpuinfo("cache size")


def _git_sha(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def _summary(values: list[float]) -> dict:
    return {"mean": statistics.fmean(values), "median": statistics.median(values),
            "min": min(values),
            "max": max(values), "n": len(values)}


def run(root: str, workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> dict:
    """Measure one workload; returns the result record (last line under 'line')."""
    r = Run(root, workload, seed, trace, smoke)
    ref = gates.reference(workload, load_cfg(r.src, r.config))
    start = time.perf_counter()
    while len(r.ops) < MIN_OPS or time.perf_counter() - start < seconds:
        r.op(traced=trace and len(r.ops) % 2 == 1, ref=ref)
    while not trace and len(r.setups) < MIN_SETUPS:
        rec, _ = r.spawn(["--setup-only"], os.path.join(r.dir, "setup"))
        if rec.get("rc") != 0:
            break
        r.setups.append(rec["setup_s"] * rec["scale"])

    failed = [op for op in r.ops if op["failures"]]
    plain = [op for op in r.ops if not op["traced"] and not op["failures"]]
    traced = [op for op in r.ops if op["traced"] and not op["failures"]]
    correct = not failed and bool(plain) and (bool(traced) or not trace)
    metrics, samples = {}, {}
    if correct and not trace:
        samples = {"wall_s": [op["wall_s"] * op["scale"] for op in plain],
                   "wall_unscaled_s": [op["wall_s"] for op in plain],
                   "scale": [op["scale"] for op in plain],
                   "setup_s": r.setups,
                   "peak_rss_mb": [op["peak_rss_mb"] for op in plain]}
        values = {"wall_s": statistics.fmean(samples["wall_s"]),
                  "setup_s": statistics.fmean(samples["setup_s"]),
                  "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
                  "energy_gap": r.ops[0]["energy_gap"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    elif correct:
        import tracer
        layers = tracer.median_metrics([op["layers"] for op in traced])
        layers["trace.overhead_s"] = (
            statistics.fmean(op["wall_s"] * op["scale"] for op in traced)
            - statistics.fmean(op["wall_s"] * op["scale"] for op in plain))
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()}
    line = {"correct": correct, "attempted": len(r.ops), "failed": len(failed),
            "metrics": metrics}
    with open(r.config) as fh:
        config = fh.read()
    record = {"workload": workload, "why": r.w.why, "trace": trace, "smoke": smoke,
              "seconds": seconds, "provenance": provenance(root, seed, workload),
              "config": config,
              "summaries": {k: _summary(v) for k, v in samples.items() if v},
              "failed_share": len(failed) / len(r.ops),
              "ops": [{k: v for k, v in op.items() if k != "layers"} for op in r.ops],
              "line": line}
    with open(r.result_path, "w") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(r.dir, ignore_errors=True)
    return record


def report(record: dict) -> None:
    """Human-readable lines of one workload's result."""
    line = record["line"]
    name = record["workload"]
    print(f"workload {name}: {record['why']}")
    print("provenance: " + json.dumps(record["provenance"]))
    for op in record["ops"]:
        verdict = "PASS" if not op["failures"] else "FAIL " + "; ".join(op["failures"])
        kind = "traced" if op["traced"] else "plain"
        wall = (f"{op['wall_s']:.4f} s x scale {op['scale']:.3f}"
                if op.get("wall_s") is not None else "n/a")
        print(f"  op{op['index']} ({kind}): wall {wall}, "
              f"rss {op['peak_rss_mb']:.1f} MB, gate {verdict}")
    for key, s in record["summaries"].items():
        print(f"  {key}: mean {s['mean']:.6g}, median {s['median']:.6g} (min {s['min']:.6g}, "
              f"max {s['max']:.6g}, n={s['n']})")
    print(f"correctness {name}: {'PASS' if line['correct'] else 'FAIL'} "
          f"({line['failed']} of {line['attempted']} ops failed)")
    for key, m in line["metrics"].items():
        print(f"  {key} = {m['value']!r} {m['unit']}")
    # failed_share is zero in a passing run, so it is reported here and through
    # attempted/failed, not as a bounded metric
    print(f"  failed_share = {record['failed_share']!r} ratio")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "phasefrac", "cli.py")):
        print(f"run.py: no phasefrac sources under {root}/src; run from the root "
              "of a phasefrac checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        record = run(root, name, args.seed, args.seconds, bool(args.trace))
        report(record)
        lines[name] = record["line"]
    if len(names) == 1:
        line = lines[names[0]]
    else:
        line = {"correct": all(v["correct"] for v in lines.values()),
                "attempted": sum(v["attempted"] for v in lines.values()),
                "failed": sum(v["failed"] for v in lines.values()),
                "metrics": {f"{name}.{k}": m for name, v in lines.items()
                            for k, m in v["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark operation, run in a fresh process: set-up, then one CLI command.

    python3 perfbench/op.py --src SRC --config RUN.ini --command CMD --out DIR
                            [--readback] [--trace-out FILE] [--setup-only]

Set-up is the import of phasefrac plus `cli.parse_config` of the generated
config (the potentials are built there).  Its clock starts before this file
imports anything beyond `sys` and `time`: the flags are read by hand, and
json and the tracer are imported after set-up, so every module phasefrac
needs (argparse among them) is loaded inside the timed set-up.  The timed
part runs from the start of the command's handler inside `cli.main` to its
return, plus, with --readback, reading every dumped field back through
`fields.read_field`.

Right after set-up and again after the timed part, the op times a fixed
calibration loop of small numpy calls in the same process.  The host's
vCPUs speed up and slow down by up to 1.8x over seconds to minutes, and this
loop slows with them; `scale` = CAL_REF_S / (mean loop time) converts the
op's times to seconds at the host's reference speed (see README, "Noise").
Prints one JSON line: exit code, setup_s, wall_s, cal_s, scale.
"""
import sys
from time import perf_counter

OPTIONS = ("--src", "--config", "--command", "--out", "--trace-out")
FLAGS = ("--readback", "--setup-only")
REQUIRED = ("--src", "--config", "--command", "--out")
CAL_CALLS = 20000
# the loop's time on this benchmark's reference host in its fast state
# (2-vCPU shared VM; see README); a unit convention, not a threshold
CAL_REF_S = 0.016


def calibrate() -> float:
    """Seconds taken by CAL_CALLS dot products of 256-vectors."""
    import numpy as np
    v = np.linspace(0.0, 1.0, 256)
    acc = 0.0
    t0 = perf_counter()
    for _ in range(CAL_CALLS):
        acc += float(np.dot(v, v))
    return perf_counter() - t0


def parse_args(argv: list) -> dict:
    args = {}
    tokens = iter(argv)
    for tok in tokens:
        if tok in FLAGS:
            args[tok] = True
        elif tok in OPTIONS:
            args[tok] = next(tokens, None)
            if args[tok] is None:
                raise SystemExit(f"op: {tok} needs a value")
        else:
            raise SystemExit(f"op: unknown argument {tok!r}")
    missing = [opt for opt in REQUIRED if opt not in args]
    if missing:
        raise SystemExit(f"op: missing {' '.join(missing)}")
    return args


def main() -> int:
    t0 = perf_counter()
    args = parse_args(sys.argv[1:])
    src, config, out = args["--src"], args["--config"], args["--out"]
    sys.path.insert(0, src)
    import phasefrac
    from phasefrac import cli
    cli.parse_config(config)
    setup_s = perf_counter() - t0

    import json
    import os
    pkg_dir = os.path.dirname(os.path.realpath(phasefrac.__file__))
    if os.path.dirname(pkg_dir) != os.path.realpath(src):
        print(f"op: phasefrac imported from {pkg_dir}, not from {src}", file=sys.stderr)
        return 3
    cal_s = [calibrate()]
    if args.get("--setup-only"):
        cal_s.append(calibrate())
        print(json.dumps(result(0, setup_s, None, cal_s)))
        return 0

    trace_out = args.get("--trace-out")
    if trace_out:
        import tracer as tracing
        tracer = tracing.install()

    handler_name = f"_cmd_{args['--command']}"
    handler = getattr(cli, handler_name)
    span = {}

    def timed(cfg):
        span["start"] = perf_counter()
        try:
            return handler(cfg)
        finally:
            span["end"] = perf_counter()

    setattr(cli, handler_name, timed)
    rc = cli.main([args["--command"], "--config", config, "--out", out, "--quiet"])
    if rc == 0 and args.get("--readback"):
        from phasefrac import fields
        for name in sorted(os.listdir(out)):
            if name.endswith(".field"):
                fields.read_field(os.path.join(out, name))
        span["end"] = perf_counter()
    if trace_out:
        with open(trace_out, "w") as fh:
            json.dump({"metrics": tracing.layer_metrics(tracer), "spans": tracer.spans,
                       "kernels": tracer.kernels}, fh)
    cal_s.append(calibrate())
    print(json.dumps(result(rc, setup_s, span["end"] - span["start"] if span else None,
                            cal_s)))
    return 0


def result(rc: int, setup_s: float, wall_s, cal_s: list) -> dict:
    mean_cal = sum(cal_s) / len(cal_s)
    return {"rc": rc, "setup_s": setup_s, "wall_s": wall_s, "cal_s": mean_cal,
            "scale": CAL_REF_S / mean_cal}


if __name__ == "__main__":
    sys.exit(main())

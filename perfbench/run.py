#!/usr/bin/env python3
"""Benchmark of the submodopt package: one workload per process.

    python3 perfbench/run.py --workload exhaustive --seed 1401 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
``src`` without an install.  Workloads: exhaustive, tables, solve, prox
(see ``workloads.py`` and the README).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are ``setup_s``, ``op_ref``
and ``peak_rss_mb``; with ``--trace 1`` they are the per-layer figures of
``tracing.py``, the tracing overhead and the raw reference timings.

Every timed operation is preceded by a fixed calibration computation and
measured as the ratio of the two wall times, so that a change in the
host's speed between or within runs largely cancels.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# One thread for BLAS and OpenMP, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
NAMES = ("exhaustive", "tables", "solve", "prox")
SETUP_REPEATS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's own, see README)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="length of the timed loop; whole rounds are run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import submodopt from this checkout's src, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import submodopt
    except ImportError as exc:
        sys.exit(f"cannot import submodopt from {SRC}: {exc}")
    if not os.path.abspath(submodopt.__file__).startswith(SRC + os.sep):
        sys.exit(f"submodopt was imported from {submodopt.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# calibration: the benchmark's own code, no package code
# ---------------------------------------------------------------------------

_CAL = {}


def calibrate() -> float:
    """Wall time of a fixed mix of interpreter-bound and numpy work.

    About two thirds is a Python loop of small-integer arithmetic; the rest
    sorts a 256 KiB array and gathers through a 2 MiB one, in place, into
    buffers made once.  Neither part allocates per step, so the time does
    not depend on the memory the previous operation left behind.
    """
    import numpy as np

    if not _CAL:
        rng = np.random.default_rng(0)
        small, large = rng.random(1 << 15), rng.random(1 << 18)
        _CAL.update(small=small, large=large, index=np.arange(1 << 18) ^ 5,
                    buf_small=np.empty_like(small), buf_take=np.empty_like(large),
                    buf_add=np.empty_like(large))
    c = _CAL
    t0 = time.perf_counter()
    acc = 0
    for m in range(160000):
        acc ^= (m ^ (m >> 3)) & 0xFF
    for _ in range(8):
        np.multiply(c["small"], 1.0000001, out=c["buf_small"])
        c["buf_small"].sort()
        np.take(c["large"], c["index"], out=c["buf_take"])
        np.add(c["buf_take"], 1.0, out=c["buf_add"])
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# output fingerprints: identical outputs across repeats are checked once
# ---------------------------------------------------------------------------

def _feed(h, obj) -> None:
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(b"d")
        for k in sorted(obj):
            h.update(repr(k).encode())
            _feed(h, obj[k])
    elif isinstance(obj, (list, tuple)):
        h.update(b"l%d" % len(obj))
        for v in obj:
            _feed(h, v)
    else:
        h.update(repr(obj).encode())


def fingerprint(obj) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    _feed(h, obj)
    return h.digest()


class Record:
    """Timings and distinct outputs of one instance."""

    def __init__(self, inst):
        self.inst = inst
        self.ratios: list = []
        self.op_s: list = []
        self.cal_s: list = []
        self.errors: list = []
        self.outputs: dict = {}   # fingerprint -> [count, first output]

    def add(self, cal: float, dt: float, out, error) -> None:
        self.cal_s.append(cal)
        if error is not None:
            self.errors.append(error)
            return
        self.ratios.append(dt / cal)
        self.op_s.append(dt)
        self.keep(out)

    def keep(self, out) -> None:
        key = fingerprint(out)
        if key in self.outputs:
            self.outputs[key][0] += 1
        else:
            self.outputs[key] = [1, out]


def timed_loop(records, seconds: float, tracer=None, op_base: int = 0) -> int:
    """Whole rounds over every instance until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        for rec in records:
            gc.collect()
            cal = calibrate()
            if tracer is not None:
                tracer.current_op = op_base + n
            error = out = None
            t0 = time.perf_counter()
            try:
                out = rec.inst.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            rec.add(cal, dt, out, error)
            n += 1
        if time.perf_counter() >= deadline:
            return n


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def op_ref(ratio_lists) -> float:
    """Geometric mean over instances of the median operation/calibration ratio."""
    return geomean(statistics.median(r) for r in ratio_lists if r)


def check_outputs(records) -> tuple:
    """Check every distinct output; returns (failed operations, correct)."""
    failed = sum(len(r.errors) for r in records)
    correct = True
    for r in records:
        for e in r.errors[:1]:
            print(f"FAILED {r.inst.name}: {e}", file=sys.stderr)
        for count, out in r.outputs.values():
            try:
                r.inst.check(out)
            except AssertionError as exc:
                print(f"WRONG {r.inst.name}: {exc}", file=sys.stderr)
                failed += count
                correct = False
    return failed, correct


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    build = workloads.BUILDERS[args.workload]
    t_import = time.perf_counter() - T_START

    builds = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = build(seed, HERE)
        builds.append(time.perf_counter() - t0)
        if k + 1 < SETUP_REPEATS:
            wl.close()
    setup_s = t_import + statistics.median(builds)

    try:
        records = [Record(inst) for inst in wl.instances]
        gc.collect()
        try:
            records[0].keep(records[0].inst.run())   # checked like the others
        except Exception:  # the timed loop counts this failure
            pass
        if args.trace:
            result = traced_run(args, records, seed)
        else:
            n = timed_loop(records, args.seconds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"setup_s": metric(setup_s, "s"),
                       "op_ref": metric(op_ref(r.ratios for r in records), "ref"),
                       "peak_rss_mb": metric(peak_mb, "MB")}
            result = (n, metrics)
        t_checks = time.perf_counter()
        failed, correct = check_outputs(records)
        t_checks = time.perf_counter() - t_checks
    finally:
        wl.close()

    n, metrics = result
    summarize(args.workload, seed, records, setup_s, t_import)
    print(f"checks took {t_checks:.1f} s", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_run(args, records, seed) -> tuple:
    """Half the time untraced (the base), half traced; returns (ops, metrics)."""
    from tracing import Tracer

    half = args.seconds / 2.0
    n_base = timed_loop(records, half)
    base = op_ref(r.ratios for r in records)
    base_ms = geomean(statistics.median(r.op_s) for r in records if r.op_s) * 1e3
    cal_ms = statistics.median(c for r in records for c in r.cal_s) * 1e3
    marks = [len(r.ratios) for r in records]

    tracer = Tracer()
    tracer.install()
    try:
        n_traced = timed_loop(records, half, tracer, op_base=n_base)
    finally:
        tracer.uninstall()
    traced = op_ref(r.ratios[m:] for r, m in zip(records, marks))

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.save(os.path.join(out_dir, f"trace-{args.workload}-{seed}.npz"))
    metrics = {name: metric(value, unit)
               for name, (value, unit) in tracer.layer_metrics(n_traced).items()}
    metrics["trace.overhead_pct"] = metric((traced / base - 1.0) * 100.0, "%")
    metrics["trace.base_op_ref"] = metric(base, "ref")
    metrics["ref.op_ms"] = metric(base_ms, "ms")
    metrics["ref.calib_ms"] = metric(cal_ms, "ms")
    print(f"tracing overhead {100.0 * (traced / base - 1.0):+.1f}% "
          f"(traced op_ref {traced:.4g} over untraced op_ref {base:.4g}, "
          f"{n_traced} traced and {n_base} untraced operations)", file=sys.stderr)
    return n_base + n_traced, metrics


def summarize(workload, seed, records, setup_s, t_import) -> None:
    print(f"{workload} seed {seed}: setup {setup_s:.3f} s "
          f"(import {t_import:.3f} s)", file=sys.stderr)
    for r in records:
        if r.ratios:
            print(f"  {r.inst.name:24s} n={len(r.ratios):3d} "
                  f"ratio {statistics.median(r.ratios):9.3f} "
                  f"op {1e3 * statistics.median(r.op_s):9.2f} ms "
                  f"cal {1e3 * statistics.median(r.cal_s):6.2f} ms", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

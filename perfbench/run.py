"""Run one oodkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bvae_qint8_stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from a checkout: oodkit is imported from the checkout's src/ directory,
never from an installed copy. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, computed from the Chrome trace the run writes under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 1
WORKLOADS = ("bvae_qint8_stream", "optflow_stream")
SMOKE_FRAMES = 24


def _import_program():
    package = SRC / "oodkit" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: no oodkit sources at {package.parent}")
    sys.path.insert(0, str(SRC))
    import oodkit
    if Path(oodkit.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: imported oodkit from {oodkit.__file__}, not {SRC}")


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _blas():
    """BLAS library name and its thread count, read from the loaded library."""
    import ctypes

    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()
                   and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def host_info():
    import numpy as np
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": _blas(), "machine": platform.machine()}


def _unit(name):
    """Unit of a metric, from its name without the executor suffix."""
    stem, _, last = name.rpartition(".")
    if last not in ("mono_st", "chain_mt", "mono_mt"):
        stem = name
    if stem == "capacity_fps":
        return "fps"
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_per_frame", "1/frame")):
        if stem.endswith(suffix):
            return unit
    return "count"


def run_workload(workload, seed, seconds, trace, smoke=False):
    """One measured run. Returns the full record; record["result"] is the
    line the benchmark prints last."""
    import spans
    import workloads as wl
    from oodkit.config import default_config

    rate = default_config().bench.rate_fps  # the deployment rate of the latency cells
    frames = SMOKE_FRAMES if smoke else int(seconds * rate / len(wl.EXECUTORS))
    budget = wl.Budget(frames_per_cell=frames, setup_repeats=1 if smoke else 3, smoke=smoke)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "host": host_info(), "loadavg_start": _loadavg()}
    tracer = spans.Tracer().install() if trace else None
    try:
        (stream, design), setup_times = wl.setup(workload, seed, budget, tracer)
        e2e, attempted, failed, cells = wl.run_streams(stream, tracer)
        design_metrics, d_attempted, d_failed, outputs = wl.run_design(design, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    e2e.update(design_metrics, setup_s=statistics.median(setup_times))
    record.update(loadavg_end=_loadavg(), cells=cells, design=outputs, setup_s=setup_times,
                  end_to_end={k: e2e.get(k) for k in wl.end_to_end_names()})
    attempted += d_attempted
    failed += d_failed

    if trace:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"{workload}-seed{seed}.trace.json"
        tracer.write_chrome(trace_path)
        chosen = spans.summarize(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        chosen = {k: record["end_to_end"][k] for k in wl.end_to_end_names(gated_only=True)}
    correct = failed == 0 and all(v is not None for v in chosen.values())
    record["result"] = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in chosen.items()}}
    return record


def _print_report(record):
    import workloads as wl
    gated = wl.end_to_end_names(gated_only=True)
    print(f"# workload {record['workload']} seed {record['seed']} trace {record['trace']}")
    print(f"# host {json.dumps(record['host'])} loadavg "
          f"{record['loadavg_start']} -> {record['loadavg_end']}")
    for c in record["cells"]:
        print(f"# cell {json.dumps(c)}")
    for phase, out in record["design"].items():
        print(f"# design {phase} {json.dumps(out)}")
    label = "traced end-to-end" if record["trace"] else "end-to-end"
    for k, v in record["end_to_end"].items():
        note = "" if k in gated else " (reported, not gated)"
        print(f"# {label} {k} = {v} {_unit(k)}{note}")


def _print_overhead(record):
    """Traced minus untraced end-to-end numbers, against the untraced record
    of the same workload and seed if this checkout has one."""
    base = OUT / f"{record['workload']}-seed{record['seed']}-trace0.json"
    if not base.is_file():
        print(f"# tracing overhead: no untraced record {base.name}; run --trace 0 first")
        return
    untraced = json.loads(base.read_text())["end_to_end"]
    for k, v in record["end_to_end"].items():
        if v is not None and untraced.get(k) is not None:
            print(f"# tracing overhead {k} = {v - untraced[k]:+.6g} {_unit(k)} "
                  f"(traced {v:.6g}, untraced {untraced[k]:.6g})")


def smoke():
    """Each workload briefly, untraced then traced: every metric present,
    no failed operation, equal scores across executors."""
    import spans
    import workloads as wl

    names = {0: wl.end_to_end_names(gated_only=True), 1: spans.per_layer_names()}
    bench_file = ROOT / "BENCHMARK.json"
    if bench_file.is_file():
        spec = json.loads(bench_file.read_text())
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(names[0])
        assert sorted(m["name"] for m in spec["per_layer"]) == sorted(names[1])
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = run_workload(workload, DEFAULT_SEED, 1, trace, smoke=True)
            result = record["result"]
            missing = [n for n in names[trace] if result["metrics"].get(n, {}).get("value") is None]
            missing += [n for n, v in record["end_to_end"].items() if v is None]
            assert not missing, f"{workload} trace={trace}: missing {missing}"
            assert result["failed"] == 0 and result["correct"], f"{workload}: {record['cells']}"
            assert len({c["digest"] for c in record["cells"]}) == 1, record["cells"]
            print(f"smoke {workload} trace={trace}: ok, {result['attempted']} operations")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="duration of the three latency cells together")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload very briefly and check it")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    _import_program()
    if args.smoke:
        return smoke()

    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    _print_report(record)
    if args.trace:
        _print_overhead(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

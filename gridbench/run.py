"""gridlab benchmark: seeded pipelines with end-to-end and per-layer metrics.

Run from the repository root:

    python3 gridbench/run.py --workload tw_exact --seed 0 --seconds 15 --trace 0

One closed-loop client in one process runs whole passes of the
workload's op stream until `--seconds` seconds have passed.  With
`--trace 0` the last stdout line holds the end-to-end metrics, in
seconds at a reference host speed (see hostspeed.py); with `--trace 1`
it holds the per-layer metrics of a traced run.  The line before it
holds provenance and details.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_REPEATS = 3
# a timed run is at least this many whole passes, so a tail that leaves
# TAIL_BEYOND // MIN_PASSES ops of each pass beyond it leaves at least
# TAIL_BEYOND ops of the run beyond it
MIN_PASSES = 2
TAIL_BEYOND = 10

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "verified_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _span_metrics(fns, stats):
    return [f"{fn}.{stat}" for fn in fns for stat in stats]


PER_LAYER = (
    _span_metrics(["kernels.treewidth_order", "kernels.min_fill_order"],
                  ["calls", "self_s"])
    + _span_metrics([f"decomposition.{fn}" for fn in (
        "treewidth_exact", "treewidth_upper", "decomposition_from_order",
        "lift_radial_to_map", "lift_power", "vertex_cover_dp", "td_loads",
        "td_dumps")], ["self_s"])
    + _span_metrics(["decomposition.TreeDecomposition.validate"],
                    ["calls", "self_s"])
    + ["decomposition.validate.bag_vertices"]
    + _span_metrics(["embedding.EmbeddedGraph.__init__",
                     "embedding.EmbeddedGraph.vertex_darts"],
                    ["calls", "self_s"])
    + _span_metrics([f"embedding.{fn}" for fn in (
        "is_canonical", "radial_embedding", "union_radial_dual",
        "dual_graph", "radial_graph", "map_graph", "emb_loads")],
        ["self_s"])
    + _span_metrics([f"minors.{fn}" for fn in (
        "radial_grid_to_dual_grid", "double_radial_minor", "sequence_loads",
        "model_dumps", "model_loads")], ["self_s"])
    + _span_metrics(["minors.ContractionSequence.replay",
                     "minors.verify_model", "graph.SimpleGraph.subgraph"],
                    ["calls", "self_s"])
    + _span_metrics([f"graph.{fn}" for fn in (
        "power_graph", "k_neighborhood", "gr_loads", "gr_dumps")],
        ["self_s"])
    + _span_metrics([f"cli.{cmd}" for cmd in (
        "derive", "tw", "lift", "check", "transfer")], ["self_s"])
    + ["cli.bytes_read", "cli.bytes_written", "cli.exit_nonzero"]
    + _span_metrics([f"generators.{fn}" for fn in (
        "wheel_map", "grid", "random_graph", "random_canonical_map",
        "random_planar_triangulation", "grid_map",
        "partially_triangulated_grid")], ["self_s"])
    + ["trace.overhead_frac", "trace.wall_s", "trace.untraced_s",
       "trace.unlisted_self_s"]
)

# spans that must fire in a traced run of each workload: a missed patch
# then shows as a failed run, not as a fast layer
EXPECTED_SPANS = {
    "tw_exact": [
        "kernels.treewidth_order", "kernels.min_fill_order",
        "decomposition.treewidth_exact",
        "decomposition.decomposition_from_order",
        "decomposition.lift_radial_to_map", "decomposition.lift_power",
        "decomposition.td_loads", "decomposition.td_dumps",
        "decomposition.TreeDecomposition.validate",
        "embedding.EmbeddedGraph.__init__", "embedding.emb_loads",
        "embedding.radial_graph", "embedding.map_graph",
        "embedding.dual_graph", "graph.power_graph", "graph.k_neighborhood",
        "graph.gr_loads", "graph.gr_dumps", "cli.derive", "cli.tw",
        "cli.lift", "cli.check", "generators.wheel_map", "generators.grid",
        "generators.random_graph", "generators.random_canonical_map",
        "generators.random_planar_triangulation"],
    "transfer": [
        "embedding.EmbeddedGraph.__init__",
        "embedding.EmbeddedGraph.vertex_darts", "embedding.is_canonical",
        "embedding.radial_embedding", "embedding.union_radial_dual",
        "embedding.dual_graph", "embedding.radial_graph",
        "embedding.emb_loads", "minors.radial_grid_to_dual_grid",
        "minors.double_radial_minor", "minors.sequence_loads",
        "minors.model_dumps", "minors.model_loads",
        "minors.ContractionSequence.replay", "minors.verify_model",
        "graph.SimpleGraph.subgraph", "cli.transfer", "cli.check",
        "generators.grid_map", "generators.random_planar_triangulation"],
    "lift_scale": [
        "kernels.min_fill_order", "decomposition.treewidth_upper",
        "decomposition.decomposition_from_order",
        "decomposition.lift_radial_to_map", "decomposition.lift_power",
        "decomposition.vertex_cover_dp", "decomposition.td_dumps",
        "decomposition.td_loads",
        "decomposition.TreeDecomposition.validate", "embedding.emb_loads",
        "embedding.radial_graph", "embedding.map_graph",
        "graph.power_graph", "graph.k_neighborhood", "graph.gr_loads",
        "generators.random_canonical_map",
        "generators.partially_triangulated_grid"],
}


def import_gridlab():
    """Import gridlab from this checkout's src/, dropping any earlier
    import so that each set-up pays for the import again."""
    for name in [m for m in sys.modules
                 if m == "gridlab" or m.startswith("gridlab.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    gl = types.SimpleNamespace(gridlab=importlib.import_module("gridlab"))
    for name in spans.LAYERS:
        setattr(gl, name.rpartition(".")[2], importlib.import_module(name))
    expected = os.path.join(SRC, "gridlab", "__init__.py")
    if os.path.realpath(gl.gridlab.__file__) != os.path.realpath(expected):
        raise ImportError(f"gridlab imported from {gl.gridlab.__file__}, "
                          f"not from {SRC}")
    return gl


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(gl, seed, threads_env):
    return {
        "kernel": gl.gridlab.KERNEL_IMPLEMENTATION,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "seed": seed,
        "GRIDLAB_THREADS": ("unset" if threads_env is None
                            else f"unset (was {threads_env!r}, ignored)"),
    }


def tail(latencies, per_pass):
    """Latency at the highest percentile that leaves TAIL_BEYOND ops
    beyond it in a run of MIN_PASSES passes of `per_pass` ops: (value,
    percentile, op count).  Over whole passes it picks the same rank of
    the pass whatever the number of passes."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(0, n - TAIL_BEYOND // MIN_PASSES * n // per_pass - 1)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def run_ops(bench, stream, seconds, passes=1, count=None, tamper=()):
    """Closed loop over whole passes of `stream` until `seconds` have
    passed and at least `passes` passes ran, or over exactly `count`
    ops.  Ops whose index is in `tamper` get a corrupted intermediate
    file.  Returns
    latencies, the (start, end) interval of each op, failures, outputs
    and the elapsed time."""
    intervals, failures, outputs, kinds = [], [], {}, []
    started = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif (i >= passes * len(stream) and i % len(stream) == 0
              and time.perf_counter() - started >= seconds):
            break
        op = stream[i % len(stream)]
        t0 = time.perf_counter()
        try:
            outputs[op.key] = op.run(bench, op.inst, tamper=i in tamper)
        except Exception as exc:  # every failure mode counts as failed
            failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
        intervals.append((t0, time.perf_counter()))
        kinds.append(op.kind)
        i += 1
    return {"latencies": [t1 - t0 for t0, t1 in intervals],
            "intervals": intervals, "failures": failures,
            "outputs": outputs, "kinds": kinds,
            "elapsed": time.perf_counter() - started}


def set_up(workload, seed, workdir, tracer_factory=None):
    """Import gridlab and generate the workload's inputs into a fresh
    directory.  Returns (bench, stream, tracer or None, (start, end))."""
    started = time.perf_counter()
    gl = import_gridlab()
    tracer = None
    if tracer_factory is not None:
        tracer = tracer_factory()
        tracer.install()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    bench = workloads.Bench(gl, tracer or spans.NullTracer(), workdir)
    stream = workloads.make_stream(workload, bench, seed)
    return bench, stream, tracer, (started, time.perf_counter())


def load_reference(path, workload):
    with open(path) as f:
        return json.load(f).get(workload, {})


def timings(lat, ok, setups, per_pass):
    value, pct, n = tail(lat, per_pass)
    return {"ops_per_s": ok / sum(lat),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": value,
            "setup_s": statistics.median(setups)}, pct, n


def end_to_end(run, setup_intervals, per_pass, normalize):
    """End-to-end metrics of `run`; `normalize(t0, t1)` gives the time
    reported for an interval (hostspeed)."""
    lat = [normalize(t0, t1) for t0, t1 in run["intervals"]]
    setups = [normalize(t0, t1) for t0, t1 in setup_intervals]
    ok = len(lat) - len(run["failures"])
    metrics, pct, n = timings(lat, ok, setups, per_pass)
    metrics.update({
        "verified_frac": ok / len(lat),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    wall, _, _ = timings(run["latencies"], ok,
                         [t1 - t0 for t0, t1 in setup_intervals], per_pass)
    by_kind = {}
    for kind, t in zip(run["kinds"], lat):
        by_kind.setdefault(kind, []).append(t)
    detail = {"op_tail_percentile": pct, "ops": n,
              "ops_per_pass": per_pass,
              "fail_frac": len(run["failures"]) / len(lat),
              "setup_s_runs": setups,
              "wall_clock": wall,
              "elapsed_s": run["elapsed"],
              "ops_by_kind": {k: {"ops": len(v),
                                  "p50_s": statistics.median(v)}
                              for k, v in sorted(by_kind.items())}}
    return {k: {"value": v, "unit": END_TO_END[k]}
            for k, v in metrics.items()}, detail


def per_layer(tracer, wall, overhead):
    values = {}
    for name in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = tracer.calls.get(fn, 0)
        elif stat == "self_s":
            values[name] = tracer.self_s.get(fn, 0.0)
        else:
            values[name] = tracer.counters.get(name, 0)
    listed = sum(v for k, v in values.items() if k.endswith(".self_s"))
    values["trace.overhead_frac"] = overhead
    values["trace.wall_s"] = wall
    values["trace.untraced_s"] = wall - tracer.spanned_s
    # self time of spans without a metric of their own, so that the
    # self times, this and untraced_s add up to wall_s
    values["trace.unlisted_self_s"] = tracer.spanned_s - listed
    return {k: {"value": v, "unit": _layer_unit(k)}
            for k, v in values.items()}


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("overhead_frac"):
        return "frac"
    if name.startswith("cli.bytes"):
        return "bytes"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference",
                    help="outputs recorded with --record (for example on "
                         "the parent commit) to compare against; default: "
                         "the stored reference for seed 0")
    ap.add_argument("--record",
                    help="write this run's outputs here")
    ap.add_argument("--ops", type=int,
                    help="run exactly this many ops instead of whole "
                         "passes for --seconds (smoke tests)")
    args = ap.parse_args(argv)

    threads_env = os.environ.pop("GRIDLAB_THREADS", None)
    tmp_root = os.path.join(ROOT, ".gridbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp_root)
    try:
        return _main(args, threads_env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass


def set_up_all(args, workdir):
    """SETUP_REPEATS set-ups; the last one is traced with --trace 1.
    Returns (bench, stream, tracer or None, set-up intervals)."""
    intervals = []
    for rep in range(SETUP_REPEATS):
        last = rep == SETUP_REPEATS - 1
        factory = spans.Tracer if args.trace and last else None
        bench, stream, tracer, interval = set_up(
            args.workload, args.seed, os.path.join(workdir, "inputs"),
            factory)
        intervals.append(interval)
    if args.reference:
        bench.reference = load_reference(args.reference, args.workload)
    elif args.seed == DEFAULT_SEED and os.path.exists(REFERENCE):
        bench.reference = load_reference(REFERENCE, args.workload)
    gc.collect()  # once, before timing; never between ops
    return bench, stream, tracer, intervals


def traced(args, bench, stream, tracer, setup_interval):
    """Untraced passes for --seconds/2, then the same ops traced.
    Returns (run, metrics, detail, attempted, failures, missing)."""
    tracer.uninstall()
    bench.tracer = spans.NullTracer()
    base = run_ops(bench, stream, args.seconds / 2, count=args.ops)
    tracer.install()
    bench.tracer = tracer
    run = run_ops(bench, stream, 0, count=len(base["latencies"]))
    tracer.uninstall()
    overhead = run["elapsed"] / base["elapsed"] - 1
    setup_s = setup_interval[1] - setup_interval[0]
    metrics = per_layer(tracer, setup_s + run["elapsed"], overhead)
    missing = [s for s in EXPECTED_SPANS[args.workload]
               if not tracer.calls.get(s)]
    detail = {"spans": {k: {"calls": tracer.calls[k],
                            "self_s": tracer.self_s[k]}
                        for k in sorted(tracer.calls)},
              "missing_spans": missing,
              "untraced_ops_s": base["elapsed"]}
    if missing:
        print(f"error: expected spans never fired: {missing}",
              file=sys.stderr)
    return (run, metrics, detail,
            len(base["latencies"]) + len(run["latencies"]),
            base["failures"] + run["failures"], missing)


def _main(args, threads_env, workdir):
    try:
        if args.trace:
            bench, stream, tracer, setups = set_up_all(args, workdir)
            run, metrics, detail, attempted, failures, missing = traced(
                args, bench, stream, tracer, setups[-1])
        else:
            # the probe samples the host speed through set-up and ops
            with hostspeed.SpeedProbe() as probe:
                bench, stream, _, setups = set_up_all(args, workdir)
                run = run_ops(bench, stream, args.seconds, MIN_PASSES,
                              count=args.ops)
            metrics, detail = end_to_end(run, setups, len(stream),
                                         probe.normalize)
            detail["host_speed"] = probe.summary()
            missing = []
            attempted = len(run["latencies"])
            failures = run["failures"]
    except ImportError as exc:
        print(f"error: cannot import gridlab: {exc}", file=sys.stderr)
        return 2
    gl = bench.gl

    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    if args.record:
        recorded = {}
        if os.path.exists(args.record):
            with open(args.record) as f:
                recorded = json.load(f)
        recorded[args.workload] = run["outputs"]
        with open(args.record, "w") as f:
            json.dump(recorded, f, indent=1, sort_keys=True)
            f.write("\n")
    detail.update({
        "workload": args.workload,
        "provenance": provenance(gl, args.seed, threads_env),
        "outputs_changed": sorted(bench.outputs_changed),
        "reference_instances": len(bench.reference),
        "failures": failures[:20],
    })
    result = {"correct": not failures and not missing,
              "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

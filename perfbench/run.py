"""HEP benchmark: partition with HEP, lift the assignment into Spark, run PageRank.

Run from the repository root:

    python3 perfbench/run.py --workload hep100-ok --seed 12 --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes one traced pass of each layer and reports the per-layer metrics.
End-to-end times are reported in units of a fixed reference kernel that
``perfbench/gauge.py`` times on the same thread while each sample runs,
because the shared host's speed drifts by tens of percent.
Every output is checked. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat each metric by name and unit. Workloads and the metric map are
described in ``perfbench/NOTES.md``. Linux only: peak RSS is read from
``/proc/self/status`` after resetting ``VmHWM`` through ``/proc/self/clear_refs``.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"  # spans, Spark scratch and temp files; never committed
K = 32
ALPHA = 1.05
PR_ITERS = 4
N_GRAPHS = 3  # graphs per untraced run; setup_s is their median generation time
GRAPH_SEED_STRIDE = 1000  # graph i of a run is drawn with seed + 1000 * i
MIN_SAMPLES = 2  # measured samples per run, whatever --seconds says
WARMUP_MAX = 5  # Spark warm-up passes, at most
WARMUP_SETTLE = 0.15  # warm-up ends at a pass within 15% of the one before
MIB = 1 << 20


@dataclass(frozen=True)
class Workload:
    graph: str  # "OK": RMAT social analog; "IT": web analog at scale 0.3
    tau: float
    process: bool  # lift into Spark and run PageRank after partitioning
    default_seed: int  # the corpus seed: reproduces graph("OK") / graph("IT", scale=0.3)


WORKLOADS = {
    "hep100-ok": Workload("OK", 100.0, False, 12),
    "hep1-ok": Workload("OK", 1.0, False, 12),
    "pagerank-it": Workload("IT", 10.0, True, 15),
}


def prepare_environment() -> None:
    """Import the checkout's ``src/``, and keep Spark's and Python's temp
    files inside the checkout. Must run before pyspark is imported."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"perfbench: {src / 'repro'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    slots = min(4, os.cpu_count() or 1)
    # every JVM, the spark-submit launcher included: temp files in the
    # checkout, and no hsperfdata file in the system temp directory
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{slots}] --driver-memory 2g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell"
    )


def make_graph(wl: Workload, seed: int):
    """The workload's analog graph, drawn with ``seed``."""
    from repro.graphs.generators import rmat, web_locality

    if wl.graph == "OK":
        return rmat(scale=15, n_edges=400_000, a=0.57, seed=seed)
    return web_locality(
        n_hosts=1_200, mean_host_size=16.0, n_edges=165_000, p_intra=0.92, seed=seed
    )


# --- Spark ------------------------------------------------------------

def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.warehouse.dir", str(OUT / "tmp" / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the gateway JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = gateway.proc
    proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def process(spark, res):
    """Lift (materialized) and PageRank; returns (ranks, stats, window),
    where the window is the (start, end) of the two in perf_counter time."""
    from repro.core.metrics import assignment_to_spark
    from repro.gasx.algorithms import pagerank

    t0 = time.perf_counter()
    df = assignment_to_spark(spark, res).localCheckpoint()
    ranks, stats = pagerank(df, n_iter=PR_ITERS)
    return ranks, stats, (t0, time.perf_counter())


def release_spark_memory(spark) -> None:
    """Let Spark clean up the previous pass's checkpoints, so that passes
    do not slow down as cached blocks pile up."""
    gc.collect()  # drops the Python handles, releasing the JVM objects
    spark.sparkContext._jvm.System.gc()  # ContextCleaner acts on JVM GC


def warm_up(spark, res) -> int:
    """Process passes until one is within WARMUP_SETTLE of the one before."""
    prev = None
    for n in range(1, WARMUP_MAX + 1):
        _, _, (t0, t1) = process(spark, res)
        release_spark_memory(spark)
        dt = t1 - t0
        if prev is not None and abs(dt - prev) <= WARMUP_SETTLE * prev:
            break
        prev = dt
    return n


# --- partitioning and peak memory --------------------------------------

def _status_kib(key: str) -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(key):
                return int(line.split()[1])
    raise RuntimeError(f"{key} missing from /proc/self/status")


def timed_partition(el, tau: float):
    """``partition_hep`` with its (start, end) in perf_counter time and its
    peak-RSS growth in MiB."""
    from repro.core.hep import partition_hep

    gc.collect()
    malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only
    if malloc_trim is not None:
        malloc_trim(0)  # hand freed heap back, so each call starts alike
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")  # reset VmHWM to the current RSS
    rss0 = _status_kib("VmRSS:")
    t0 = time.perf_counter()
    res = partition_hep(el, k=K, tau=tau)
    t1 = time.perf_counter()
    return res, (t0, t1), (_status_kib("VmHWM:") - rss0) / 1024


# --- output checks -----------------------------------------------------

def digest(res) -> str:
    return hashlib.sha256(res.assignment.astype("<i8").tobytes()).hexdigest()


def check_partition(el, res) -> list[str]:
    from repro.core.common import check_valid

    errs = []
    try:
        check_valid(el, res, alpha=ALPHA)
    except AssertionError as e:
        errs.append(f"check_valid: {e}")
    if res.replicas is None or (res.covered() & ~res.replicas).any():
        errs.append("covered() is not a subset of replicas")
    return errs


def check_process(el, res, ranks, stats, ref) -> list[str]:
    errs = []
    pdf = ranks.toPandas()
    v = pdf["v"].to_numpy()
    if not np.array_equal(np.sort(v), np.unique(el.edges)):
        errs.append("ranked vertices differ from the incident vertices")
    elif not np.allclose(pdf["rank"].to_numpy(), ref[v], rtol=1e-9, atol=0.0):
        errs.append("ranks differ from pagerank_ref")
    want = PR_ITERS * int(res.covered().sum())
    if stats.comm_rows != want:
        errs.append(f"comm_rows {stats.comm_rows} != iters x replicas {want}")
    return errs


def check_analog(wl: Workload, el) -> list[str]:
    """At the corpus seed the graph must equal the named analog bit for bit."""
    from repro.graphs.generators import graph

    named = graph("OK") if wl.graph == "OK" else graph("IT", scale=0.3)
    if named.n != el.n or not np.array_equal(named.edges, el.edges):
        return [f"seed {wl.default_seed} does not reproduce the {wl.graph} analog"]
    return []


class Outcomes:
    """Checked outputs; each failing one counts once in ``failed``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, label: str, errs: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(errs)
        self.errors += [f"{label}: {e}" for e in errs]


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"n={n}, too few samples for a tail percentile"
    q = int(100 * (1 - 10 / n))
    return f"n={n}, p{q}={statistics.quantiles(values, n=100)[q - 1]:.6g}"


# --- the two run modes -------------------------------------------------

def run_untraced(wl: Workload, seed: int, seconds: float, out: Outcomes) -> dict:
    from repro.core.metrics import edge_balance_np, vertex_balance_np
    from repro.gasx.reference import pagerank_ref

    from gauge import Gauge

    seeds = [seed + GRAPH_SEED_STRIDE * i for i in range(N_GRAPHS)]
    graphs, gens = [], []
    for s in seeds:
        t0 = time.perf_counter()
        graphs.append(make_graph(wl, s))
        gens.append(time.perf_counter() - t0)
    setup_s = statistics.median(gens)
    if seed == wl.default_seed:
        out.add("analog", check_analog(wl, graphs[0]))

    spark = None
    try:
        if wl.process:
            t0 = time.perf_counter()
            spark = start_spark()
            res, _, _ = timed_partition(graphs[0], wl.tau)
            passes = warm_up(spark, res)
            del res
            setup_s += time.perf_counter() - t0
            print(f"# spark warm-up passes: {passes}")

        # raw wall times, and net times in units of the mean probe time
        # of the phase they belong to
        part, job, part_rel, job_rel = [], [], [], []
        peak = []
        digests, quality, refs = {}, {}, {}  # per graph index
        gauge = Gauge()
        gauge.probe()  # the first probe pays numpy's lazy set-up
        t_end = time.perf_counter() + seconds
        while len(part) < MIN_SAMPLES or time.perf_counter() < t_end:
            g = len(part) % N_GRAPHS
            el = graphs[g]
            with gauge.sampling():
                res, w_part, peak_mib = timed_partition(el, wl.tau)
            part.append(w_part[1] - w_part[0])
            part_rel.append(gauge.net(*w_part) / gauge.unit())
            job.append(part[-1])
            job_rel.append(part_rel[-1])
            peak.append(peak_mib)
            errs = check_partition(el, res)
            d = digest(res)
            if digests.setdefault(g, d) != d:
                errs.append("assignment differs from the first one on this graph")
            if spark is not None:
                # gauged by its own probes, which share the cores with
                # Spark's executors as the work does
                with gauge.sampling():
                    ranks, stats, w_proc = process(spark, res)
                job[-1] += w_proc[1] - w_proc[0]
                job_rel[-1] += gauge.net(*w_proc) / gauge.unit()
                if g not in refs:
                    refs[g] = pagerank_ref(el, n_iter=PR_ITERS)
                errs += check_process(el, res, ranks, stats, refs[g])
                del ranks
                release_spark_memory(spark)
            if g not in quality:
                quality[g] = (res.replication_factor(), edge_balance_np(res), vertex_balance_np(res))
            out.add(f"sample {len(part) - 1} (graph seed {seeds[g]})", errs)
            del res
    finally:
        if spark is not None:
            stop_spark(spark)

    for g, d in digests.items():
        print(f"# graph seed {seeds[g]}: assignment sha256 {d}")
    for name, xs in (
        ("partition_s", part),
        ("job_s", job),
        ("partition_rel", part_rel),
        ("job_rel", job_rel),
        ("partition_peak_mib", peak),
    ):
        print(f"# {name} samples {[round(x, 3) for x in xs]}: median {statistics.median(xs):.6g}, {tail(xs)}")
    rf, eb, vb = (statistics.median(q) for q in zip(*quality.values()))
    return {
        "setup_s": (setup_s, "s"),
        "partition_rel": (statistics.median(part_rel), "x_ref"),
        # the largest, not the median: after Spark work the growth falls
        # from call to call (from about 31 to 17-22 MiB over six
        # pagerank-it samples), as later calls reuse memory the process
        # already holds
        "partition_peak_mib": (max(peak), "MiB"),
        "job_rel": (statistics.median(job_rel), "x_ref"),
        "rf": (rf, "ratio"),
        "edge_balance": (eb, "ratio"),
        "vertex_balance": (vb, "ratio"),
    }


def run_traced(wl: Workload, seed: int, out: Outcomes) -> dict:
    import repro.core.hep as hep_mod
    import repro.core.nepp as nepp_mod
    import repro.gasx.algorithms as gasx_mod
    from repro.core.hep import partition_hep
    from repro.core.memory_model import hep_footprint_bytes
    from repro.core.metrics import assignment_to_spark
    from repro.core.ne import partition_ne
    from repro.core.nepp import partition_nepp
    from repro.gasx.reference import pagerank_ref
    from repro.graphs.csr import CSR, build_pruned_csr

    from spans import Tracer

    el = make_graph(wl, seed)
    if seed == wl.default_seed:
        out.add("analog", check_analog(wl, el))
    tracer = Tracer()
    targets = [
        (hep_mod, "partition_nepp", "nepp.partition"),
        (hep_mod, "stream_edges", "streaming.stream"),
        (nepp_mod, "build_pruned_csr", "csr.build_pruned"),
        (CSR, "remove_neighbors", "csr.remove_neighbors"),
        (gasx_mod, "two_stage_agg", "gasx.two_stage_agg"),
    ]

    # untraced reference pass, then the traced pass over the same call
    res, (t0, t1), _ = timed_partition(el, wl.tau)
    untraced_s = t1 - t0
    out.add("untraced", check_partition(el, res))
    want = digest(res)
    del res
    gc.collect()
    with tracer.patched(targets), tracer.span("hep.partition"):
        res = partition_hep(el, k=K, tau=wl.tau)
    out.add("traced", [] if digest(res) == want else ["assignment differs from untraced"])

    # tracemalloc costs ~7x, so it gets a pass of its own (NE++ only)
    gc.collect()
    tracemalloc.start()
    try:
        partition_nepp(el, k=K, tau=wl.tau)
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    # column bytes read, counted through the CSR touch hook in its own pass
    read = 0

    def touch(lo: int, hi: int) -> None:
        nonlocal read
        read += hi - lo

    csr = build_pruned_csr(el, tau=wl.tau)
    csr.touch = touch
    counted = partition_hep(el, k=K, tau=wl.tau, csr=csr)
    out.add("touch", [] if digest(counted) == want else ["assignment differs from untraced"])
    del counted, csr

    with tracer.span("ne.partition"):
        partition_ne(el, k=K)

    spark = start_spark()
    try:
        print(f"# spark warm-up passes: {warm_up(spark, res)}")
        sc = spark.sparkContext
        with tracer.patched(targets):
            sc.setJobGroup("perfbench-lift", "lift")
            with tracer.span("metrics.lift"):
                df = assignment_to_spark(spark, res).localCheckpoint()
            sc.setJobGroup("perfbench-pagerank", "pagerank")
            with tracer.span("gasx.pagerank"):
                ranks, stats = gasx_mod.pagerank(df, n_iter=PR_ITERS)
        jobs = len(sc.statusTracker().getJobIdsForGroup("perfbench-pagerank"))
        out.add("pagerank", check_process(el, res, ranks, stats, pagerank_ref(el, n_iter=PR_ITERS)))
    finally:
        stop_spark(spark)
    tracer.write(OUT / f"spans-{wl.graph}-tau{wl.tau:g}-seed{seed}.json")

    stream_s = tracer.total("streaming.stream")
    n_h2h = res.stats["n_h2h"]
    pr = tracer.named("gasx.pagerank")[0]
    aggs = tracer.named("gasx.two_stage_agg")
    prep_s = tracer.spans[aggs[0]][1] - tracer.spans[pr][1]
    local_s = tracer.total("gasx.two_stage_agg")
    hep_s = tracer.total("hep.partition")
    return {
        "csr.build_pruned_s": (tracer.total("csr.build_pruned"), "s"),
        "csr.remove_neighbors_s": (tracer.total("csr.remove_neighbors"), "s"),
        "csr.remove_neighbors_calls": (len(tracer.named("csr.remove_neighbors")), "count"),
        "csr.col_entries": (res.stats["initial_col_entries"], "count"),
        "csr.cleaned_entries": (res.stats["cleaned_entries"], "count"),
        "csr.col_bytes_read": (read, "bytes"),
        "nepp.partition_s": (tracer.total("nepp.partition"), "s"),
        "nepp.self_s": (tracer.self_time("nepp.partition"), "s"),
        "nepp.m_inmem": (res.stats["m_inmem"], "count"),
        "nepp.high_count": (res.stats["high_count"], "count"),
        "nepp.traced_peak_mib": (traced_peak / MIB, "MiB"),
        "nepp.model_mib": (hep_footprint_bytes(el.degrees(), tau=wl.tau, k=K) / MIB, "MiB"),
        "streaming.stream_s": (stream_s, "s"),
        "streaming.edges": (n_h2h, "count"),
        # with no streamed edge the divisor is floored at 1
        "streaming.us_per_edge": (stream_s * 1e6 / max(n_h2h, 1), "us"),
        "hep.partition_s": (hep_s, "s"),
        "hep.glue_s": (tracer.self_time("hep.partition"), "s"),
        "ne.partition_s": (tracer.total("ne.partition"), "s"),
        "metrics.lift_s": (tracer.total("metrics.lift"), "s"),
        "metrics.lift_rows": (len(res.assignment), "count"),
        "gasx.pagerank_s": (tracer.duration(pr), "s"),
        "gasx.prep_s": (prep_s, "s"),
        "gasx.local_combine_s": (local_s, "s"),
        "gasx.global_combine_s": (tracer.duration(pr) - prep_s - local_s, "s"),
        "gasx.partial_rows": (stats.comm_rows, "count"),
        "gasx.spark_jobs": (jobs, "count"),
        "gasx.jobs_per_iter": (jobs / PR_ITERS, "jobs/iter"),
        "trace.overhead_s": (hep_s - untraced_s, "s"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None, help="graph seed (default: the corpus seed)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed

    prepare_environment()
    out = Outcomes()
    if args.trace:
        metrics = run_traced(wl, seed, out)
    else:
        metrics = run_untraced(wl, seed, args.seconds, out)

    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(f"{'failed_frac':28s} {out.failed / out.attempted:.6g} ratio")
    for e in out.errors:
        print(f"# FAILED {e}")
    print(
        json.dumps(
            {
                "correct": out.failed == 0,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

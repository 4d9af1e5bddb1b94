"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload walk-range --seed 1 --seconds 20 --trace 0

``--trace 0`` times set-up (median of :data:`SETUP_REPS` builds), a
closed-loop phase of ``--seconds`` (extended to :data:`MIN_READS`
reads) and, when that phase wrote less than :data:`MIN_WRITES` times,
admits of fresh series up to that count, with no instrumentation, and
reports the end-to-end metrics.  ``--trace 1`` runs ``--seconds`` of
operations in alternating blocks, untraced and with every layer wrapped
in spans, and reports the per-layer metrics from the traced blocks; the
spans are written to ``.perfbench_work/``.  Every time is speed-scaled
against a reference kernel sampled before each operation (see
:mod:`perfbench.speed`).  A fixed sample of operations is checked
against the oracle in both modes.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` next to this directory; without
it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Builds timed per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Reads and writes a timed run measures at least, so that ten samples
#: lie beyond each p95.
MIN_READS = 200
MIN_WRITES = 400
#: Operations per block of a traced run; blocks alternate untraced/traced.
TRACE_BLOCK = 8


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank *q*-quantile of *values* (``0 < q <= 1``)."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))]


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when nothing happened."""
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest live worker process."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = [0.0]
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                workers.append(float(line.split()[1]) / 1024.0)
    return own + max(workers)


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Worker processes still alive after the database closed are stopped.
    ``multiprocessing``'s resource tracker, which the first spawn starts,
    would otherwise outlive this process for as long as it takes to
    notice the exit; stopping it closes its pipe and reaps it.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def closed_loop(
    workload: Any,
    db: Any,
    log: Any,
    first: int,
    seconds: float,
    count: int | None = None,
    min_reads: int = 0,
) -> int:
    """Run operations from index *first* until the program has been busy
    for *seconds* and *min_reads* reads completed, or until *count*
    operations ran; returns the next index."""
    index, until = first, log.busy + seconds
    while (log.busy < until or log.count("read") < min_reads) and (
        count is None or index < first + count
    ):
        workload.step(db, index, log)
        index += 1
    return index


def write_probe(workload: Any, db: Any, log: Any, first: int, count: int) -> None:
    """Time *count* admits of fresh series from stream index *first*."""
    for i in range(first, first + count):
        workload.admit(db, workload.fresh(i), log)


def stored_bytes_ratio(workload: Any, db: Any, workdir: Path) -> float:
    """Bytes ``save`` writes over 8 bytes per stored element."""
    target = workdir / "saved"
    target.mkdir()
    db.save(target / "db")
    written = sum(path.stat().st_size for path in target.iterdir())
    return written / (8.0 * workload.stored_elements())


def timed_setup(workload: Any) -> tuple[Any, float, float]:
    """One build, with its measured and speed-scaled seconds."""
    from perfbench import speed

    window = 2 * speed.WINDOW + 1
    gc.collect()  # so no build pays for collecting the previous one
    references = [speed.reference_seconds() for _ in range(window)]
    start = time.perf_counter()
    db = workload.build()
    measured = time.perf_counter() - start
    references += [speed.reference_seconds() for _ in range(window)]
    return db, measured, measured * speed.scale(references)


def timed_run(workload: Any, seconds: float, workdir: Path) -> tuple[dict[str, Any], Any]:
    from perfbench.workloads import OpLog

    setups, measured, db = [], [], None
    try:
        for _ in range(SETUP_REPS):
            if db is not None:
                db.close()
                db = None
            db, raw, scaled = timed_setup(workload)
            measured.append(raw)
            setups.append(scaled)
        log = OpLog()
        index = closed_loop(workload, db, log, 0, seconds, min_reads=MIN_READS)
        reads, writes = log.scaled("read"), log.scaled("write")
        ops_per_s = ratio(len(reads) + len(writes), sum(reads) + sum(writes))
        raw_rate = ratio(len(log.ops), log.busy)
        if len(writes) < MIN_WRITES:
            write_probe(workload, db, log, index, MIN_WRITES - len(writes))
            writes = log.scaled("write")
        stored = stored_bytes_ratio(workload, db, workdir)
        rss = peak_rss_mb()
    finally:
        if db is not None:
            db.close()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "read_p50_ms": (percentile(reads, 0.50) * 1e3, "ms"),
        "read_p95_ms": (percentile(reads, 0.95) * 1e3, "ms"),
        "write_p50_ms": (percentile(writes, 0.50) * 1e3, "ms"),
        "write_p95_ms": (percentile(writes, 0.95) * 1e3, "ms"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "stored_bytes_ratio": (stored, "ratio"),
    }
    raw_reads = [sec for kind, sec, _ in log.ops if kind == "read"]
    raw_writes = [sec for kind, sec, _ in log.ops if kind == "write"]
    print(
        f"samples: {len(reads)} reads, {len(writes)} writes, {log.checked} oracle checks; "
        f"reference median {statistics.median(log.references()) * 1e6:.1f} us"
    )
    print("unscaled " + json.dumps({
        "setup_s": statistics.median(measured),
        "read_p50_ms": percentile(raw_reads, 0.50) * 1e3,
        "read_p95_ms": percentile(raw_reads, 0.95) * 1e3,
        "write_p50_ms": percentile(raw_writes, 0.50) * 1e3,
        "write_p95_ms": percentile(raw_writes, 0.95) * 1e3,
        "ops_per_s": raw_rate,
    }))
    return metrics, log


def traced_run(workload: Any, seconds: float, workdir: Path, name: str, seed: int) -> tuple[dict[str, Any], Any]:
    from perfbench import speed
    from perfbench.spans import LAYERS, RESIDUAL, SpanRecorder, attribute, instrument
    from perfbench.workloads import OpLog

    recorder = SpanRecorder()
    plain, log = OpLog(), OpLog(recorder)
    counts: dict[str, float] = {}
    with instrument(recorder):
        db = workload.build()
        try:
            # Alternate untraced and traced blocks, so both see the same
            # mix of operations and the same drift of the machine.
            index = 0
            while plain.busy + log.busy < seconds:
                index = closed_loop(workload, db, plain, index, seconds, TRACE_BLOCK)
                before = db.metrics.snapshot().counters
                recorder.enabled = True
                index = closed_loop(workload, db, log, index, seconds, TRACE_BLOCK)
                recorder.enabled = False
                after = db.metrics.snapshot().counters
                for counter, value in after.items():
                    counts[counter] = counts.get(counter, 0) + value - before.get(counter, 0)
            backend = db.backend_name
        finally:
            db.close()
    recorder.dump(workdir.parent / f"spans-{name}-{seed}.json")

    def delta(counter: str) -> float:
        return counts.get(counter, 0)

    attr = attribute(recorder.spans)
    ops = attr.operations
    reads, writes = log.count("read"), log.count("write")
    verified = delta("engine.candidates") + delta("engine.knn_examined")
    hits, misses = delta("storage.buffer.hits"), delta("storage.buffer.misses")
    untraced_rate = ratio(len(plain.ops), sum(plain.scaled()))
    traced_rate = ratio(len(log.ops), sum(log.scaled()))
    factor = speed.scale(log.references())
    metrics: dict[str, Any] = {
        f"{layer}.self_ms": (ratio(attr.total(layer), ops) * factor * 1e3, "ms/op")
        for layer in LAYERS
    }
    metrics.update(
        {
            "dtw.verify.calls_per_read": (ratio(verified, reads), "count/read"),
            "dtw.cells_per_read": (ratio(delta("dtw.cells"), reads), "count/read"),
            "dtw.accept_ratio": (ratio(log.answers, verified), "ratio"),
            "cascade.survival_ratio": (
                ratio(delta("cascade.lb_keogh.out"), delta("cascade.lb_yi.in")),
                "ratio",
            ),
            "cascade.rebuilds_per_write": (
                delta("storage.scans") / max(writes, 1),
                "count/write",
            ),
            "index.node_reads_per_read": (
                ratio(delta(f"index.{backend}.node_reads"), reads),
                "count/read",
            ),
            "index.candidates_per_read": (
                ratio(delta(f"cascade.{backend}.out") + delta("engine.knn_examined"), reads),
                "count/read",
            ),
            "storage.buffer.hit_ratio": (ratio(hits, hits + misses), "ratio"),
            "residual.share": (ratio(attr.total(RESIDUAL), attr.wall), "ratio"),
            "trace.overhead": (ratio(traced_rate - untraced_rate, untraced_rate), "ratio"),
        }
    )
    print(f"samples: {reads} traced reads, {writes} traced writes, {log.checked + plain.checked} oracle checks")
    print("layer table (speed-scaled self ms per operation of each kind):")
    for kind in sorted(attr.by_kind):
        count = attr.op_count.get(kind, 0)
        if not count:
            continue
        layers = attr.by_kind[kind]
        row = ", ".join(
            f"{layer} {layers[layer] / count * factor * 1e3:.3f}"
            for layer in sorted(layers, key=lambda k: -layers[k])
            if layers[layer] > 0
        )
        wall = attr.op_seconds[kind] / count * factor * 1e3
        print(f"  {kind} (n={count}, wall {wall:.3f}): {row}")
    log.attempted += plain.attempted
    log.failed += plain.failed
    log.checked += plain.checked
    return metrics, log


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    # Pin the program's defaults: no environment override may pick the
    # executor, store or DTW kernel a workload runs on.
    for var in ("REPRO_EXECUTOR", "REPRO_STORE", "REPRO_DTW_KERNEL"):
        os.environ.pop(var, None)
    # Run on one CPU, and so do the workers, which inherit the mask.  On
    # a shared machine how much of a second CPU the host grants swings
    # from run to run and took walk-knn-2proc's spread past any bound;
    # on one CPU the speed reference also samples the CPU that does the
    # work.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro  # noqa: F401  (imported before any build is timed)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    base = ROOT / ".perfbench_work"
    workdir = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        print(f"workload {args.workload} seed {args.seed}: inputs {workload.digest()}, "
              f"nproc {os.cpu_count()}, pinned to cpu {cpu}, closed loop, 1 client")
        if args.trace:
            metrics, log = traced_run(workload, args.seconds, workdir, args.workload, args.seed)
        else:
            metrics, log = timed_run(workload, args.seconds, workdir)
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"failed_frac {ratio(log.failed, log.attempted)} ({log.failed}/{log.attempted})")
    result = {
        "correct": log.failed == 0 and log.checked > 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify-id|ingest|sweep --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with the program untouched.
``--trace 1`` spends half the time untraced and half with timing wrappers
around the program's public functions, and reports the per-layer ledger
plus the tracing overhead.  Human-readable lines come first; the last line
of standard output is the JSON result.  Spans and a full report are
written under ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: BLAS runs one thread in this process and in every process it starts
#: (they inherit the environment).  The engine already spreads work over a
#: pool of ``nproc`` threads; BLAS threads beside them oversubscribe the
#: cores and made sweep pass times swing by 40% from one process to the next.
#: Set before anything imports NumPy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

WORKLOADS = ("verify-id", "ingest", "sweep")
#: Times the set-up is repeated per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Longest a sweep process may take to set up before the run is abandoned.
SETUP_TIMEOUT_S = 60.0
#: The sweep process runs the engine serially too (``REPRO_ENGINE_WORKERS``).
#: On two shared vCPUs its two-thread pool was no faster (pass ~470 ms either
#: way), but beside another busy process five runs each ranged 490-680 ms a
#: pass with the pool and 480-605 ms serially.
SWEEP_ENV = {"REPRO_ENGINE_WORKERS": "1"}
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_run"

# (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("latency_p25_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


@dataclass
class Result:
    attempted: int
    failed: int
    #: Lower quartile of the workload's operation times (``stats.LATENCY_Q``).
    latency_ms: float
    #: Upper quartile of its block rates (``stats.RATE_Q``).
    throughput: float
    peak_rss_mb: float
    setup_s: List[float]
    #: The primary latency samples, in time order (for the tail summary).
    samples_ms: List[float]
    #: The workload's own metric names for the report.
    named: List[Tuple[str, float, str]] = field(default_factory=list)
    lines: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    ledger: Optional[object] = None

    def end_to_end(self) -> Dict[str, float]:
        return {
            "latency_p25_ms": self.latency_ms,
            "throughput_per_s": self.throughput,
            "peak_rss_mb": self.peak_rss_mb,
            "setup_s": statistics.median(self.setup_s),
        }


# ----------------------------------------------------------------------
# HTTP workloads
# ----------------------------------------------------------------------
def _verify_id_measure(server, fleet, seed, seconds, failures) -> Dict[str, object]:
    from perfbench import httpbench
    from perfbench.stats import LATENCY_Q, RATE_Q, block_rates, percentile

    rounds = httpbench.measure_verify_id(server.port, fleet, seed, seconds, failures)
    samples = [x.latency * 1000.0 for o, _ in rounds for x in o.outcomes]
    latency = percentile(samples, LATENCY_Q)
    p50 = percentile(samples, 50)
    p90 = percentile(samples, 90)
    rates = [r for _, c in rounds
             for r in block_rates([x.done for x in c.outcomes], httpbench.RATE_BLOCK)]
    rps = percentile(rates, RATE_Q)
    mean_rps = sum(c.succeeded for _, c in rounds) / sum(c.seconds for _, c in rounds)
    lines = [f"round {i}: {o.summary()}; {c.summary()}" for i, (o, c) in enumerate(rounds)]
    lines.append(f"open-loop rate {httpbench.OPEN_LOOP_RPS:g} req/s on {httpbench.SENDERS} "
                 f"connections; one attribution sweep per {httpbench.SWEEP_EVERY} requests; "
                 f"latencies pooled over {len(rounds)} rounds; closed-loop rate p{RATE_Q:g} "
                 f"of {len(rates)} blocks of {httpbench.RATE_BLOCK} replies")
    return {
        "attempted": sum(o.sent + c.sent for o, c in rounds),
        "latency": latency, "throughput": rps, "rss": server.peak_rss_mb(),
        "samples": samples,
        "lag_ms": [x.lateness * 1000.0 for o, _ in rounds for x in o.outcomes],
        "lines": lines,
        "named": [("verify_id_p25_ms", latency, "ms"), ("verify_id_p50_ms", p50, "ms"),
                  ("verify_id_p90_ms", p90, "ms"), ("verify_id_rps", rps, "req/s"),
                  ("verify_id_mean_rps", mean_rps, "req/s")],
    }


def _ingest_measure(server, fleet, seed, seconds, failures) -> Dict[str, object]:
    from perfbench import httpbench
    from perfbench.stats import LATENCY_Q, RATE_Q, block_rates, percentile

    enrollments, rss, elapsed = httpbench.measure_ingest(server, fleet, seed, seconds, failures)
    ok = [e for e in enrollments if e.ok]
    if not ok:
        raise RuntimeError(f"no enrollment succeeded: {failures.reasons[:3]}")
    uploads = [e.upload_verify_s * 1000.0 for e in ok]
    latency = percentile(uploads, LATENCY_Q)
    p50 = percentile(uploads, 50)
    rates = block_rates([e.done for e in enrollments], httpbench.INGEST_RATE_BLOCK)
    rate = percentile(rates, RATE_Q)
    return {
        "attempted": len(enrollments),
        "latency": latency, "throughput": rate, "rss": rss,
        "samples": uploads,
        "lag_ms": [],
        "lines": [f"phase enroll (closed loop, 1 connection): sent={len(enrollments)} "
                  f"succeeded={len(ok)} failed={len(enrollments) - len(ok)} over "
                  f"{elapsed:.2f}s; peak RSS read after {httpbench.INGEST_RSS_AFTER} "
                  f"enrollments; enrollment rate p{RATE_Q:g} of {len(rates)} blocks of "
                  f"{httpbench.INGEST_RATE_BLOCK}"],
        "named": [
            ("insert_p50_ms", percentile([e.insert_s * 1000.0 for e in enrollments], 50), "ms"),
            ("register_p50_ms", percentile([e.register_s * 1000.0 for e in ok], 50), "ms"),
            ("upload_verify_p25_ms", latency, "ms"), ("upload_verify_p50_ms", p50, "ms"),
            ("upload_verify_p90_ms", percentile(uploads, 90), "ms"),
            ("enrollments_per_s", rate, "1/s"),
            ("enrollments_mean_per_s", len(enrollments) / elapsed, "1/s"),
        ],
    }


def run_http(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
             out_stem: Path) -> Result:
    from perfbench import httpbench
    from perfbench.ledger import apply_counters, counter_delta, http_ledger
    from perfbench.spans import SpanStore, load_spans
    from perfbench.stats import percentile
    from perfbench.wrap import install_client
    from repro.service.client import VerificationClient

    measure = _verify_id_measure if workload == "verify-id" else _ingest_measure
    fleet = httpbench.build_fleet(seed)
    failures = httpbench.Failures()

    def stats(server):
        with VerificationClient(port=server.port, timeout=30) as client:
            return client.stats()

    setups: List[float] = []
    repeats = 1 if trace else SETUP_REPEATS
    for i in range(repeats):
        server, took = httpbench.start_server(fleet, workdir / f"server-{i}")
        setups.append(took)
        if i < repeats - 1:
            server.stop()
    try:
        before = stats(server)
        body = measure(server, fleet, seed, seconds / 2 if trace else seconds, failures)
        delta = counter_delta(before, stats(server))
    finally:
        server.stop()
    attempted = body["attempted"]
    lines = list(body["lines"])

    ledger = None
    if trace:
        untraced_latency = body["latency"]
        spans_path = workdir / "server-spans.json"
        server, _ = httpbench.start_server(fleet, workdir / "server-traced", spans_path)
        store = SpanStore()
        installed = install_client(store)
        try:
            before = stats(server)
            since = time.perf_counter()
            body = measure(server, fleet, seed, seconds / 2, failures)
            until = time.perf_counter()
            delta = counter_delta(before, stats(server))
        finally:
            installed.remove()
            server.stop()
        attempted += body["attempted"]
        server_spans, _ = load_spans(spans_path)
        ledger = http_ledger(store.spans(), store.values, server_spans, since, until)
        apply_counters(ledger, delta)
        if body["lag_ms"]:
            ledger.set("loadgen.lag_ms", percentile(body["lag_ms"], 90), len(body["lag_ms"]))
        ledger.set("trace.overhead_pct", (body["latency"] / untraced_latency - 1.0) * 100.0)
        lines += ["traced: " + line for line in body["lines"]]
        store.dump(out_stem.with_suffix(".client-spans.json"))
        shutil.copyfile(spans_path, out_stem.with_suffix(".server-spans.json"))

    lines.append("server counters over the measured window: "
                 + ", ".join(f"{k}={v:g}" for k, v in delta.items()))
    return Result(
        attempted=attempted, failed=failures.count,
        latency_ms=body["latency"], throughput=body["throughput"],
        peak_rss_mb=body["rss"], setup_s=setups, samples_ms=body["samples"],
        named=body["named"] + [("peak_rss_mb", body["rss"], "MB")],
        lines=lines, problems=failures.reasons, ledger=ledger,
    )


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def _wait(proc: subprocess.Popen, timeout: float) -> int:
    """Wait for ``proc`` to exit; stop it and raise if it takes longer than ``timeout``."""
    from perfbench.serverproc import stop_process

    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_process(proc)
        raise
    finally:
        proc.stdout.close()


def _spawn_sweep(args: List[str], workdir: Path) -> Tuple[subprocess.Popen, float]:
    """Start a sweep process and wait for its ``ready`` line; return it and the wait."""
    from perfbench.serverproc import program_env, stop_process

    log = open(workdir / "sweep.log", "ab")
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(PERFBENCH / "sweep_worker.py"), *args],
        stdout=subprocess.PIPE, stderr=log, env={**program_env(), **SWEEP_ENV}, cwd=str(ROOT),
    )
    log.close()
    ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
    line = proc.stdout.readline() if ready else b""
    took = time.perf_counter() - started
    if line.strip() != b"ready":
        stop_process(proc)
        raise RuntimeError("sweep process failed during set-up:\n"
                           + (workdir / "sweep.log").read_text(errors="replace")[-2000:])
    return proc, took


def _sweep_figures(data: Dict[str, object]) -> Tuple[float, float, float]:
    """Pass time (ms) as the sum over the cells of each cell's lower-quartile
    time, the median pass time (ms), and cells/s at the upper quartile of the
    per-pass rates."""
    from perfbench.stats import LATENCY_Q, RATE_Q, percentile

    per_cell = zip(*data["cell_ms"])
    latency = sum(percentile(times, LATENCY_Q) for times in per_cell)
    rates = [len(cells) / sum(cells) * 1000.0 for cells in data["cell_ms"]]
    return latency, percentile(data["pass_ms"], 50), percentile(rates, RATE_Q)


def run_sweep(seed: int, seconds: float, trace: bool, workdir: Path, out_stem: Path) -> Result:
    from perfbench.ledger import Ledger

    out = workdir / "sweep-result.json"
    args = ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
            "--out", str(out)]
    setups: List[float] = []
    for _ in range((1 if trace else SETUP_REPEATS) - 1):
        proc, took = _spawn_sweep(args + ["--setup-only"], workdir)
        setups.append(took)
        _wait(proc, SETUP_TIMEOUT_S)
    proc, took = _spawn_sweep(args, workdir)
    setups.append(took)
    code = _wait(proc, seconds * 2 + SETUP_TIMEOUT_S)
    if code != 0:
        raise RuntimeError("sweep process failed:\n"
                           + (workdir / "sweep.log").read_text(errors="replace")[-2000:])
    data = json.loads(out.read_text())
    latency, p50, rate = _sweep_figures(data)
    ledger = None
    lines = [f"phase passes (serial gauntlet, quality off): passes={len(data['pass_ms'])} "
             f"of {data['cells_per_pass']} cells; cells checked={data['checked_cells']} "
             f"failed={data['failed_cells']} over {sum(data['pass_ms']) / 1000.0:.2f}s; "
             f"digest {data['reference_digest'][:16]}"]
    if trace:
        ledger = Ledger()
        ledger.values.update(data["ledger"]["values"])
        ledger.counts.update(data["ledger"]["counts"])
        untraced_latency = _sweep_figures(data["untraced"])[0]
        ledger.set("trace.overhead_pct", (latency / untraced_latency - 1.0) * 100.0)
        shutil.copyfile(out.with_suffix(".spans.json"), out_stem.with_suffix(".spans.json"))
    return Result(
        attempted=data["checked_cells"], failed=data["failed_cells"],
        latency_ms=latency, throughput=rate, peak_rss_mb=data["peak_rss_mb"],
        setup_s=setups, samples_ms=data["pass_ms"],
        named=[("pass_cells_p25_ms", latency, "ms"), ("pass_p50_ms", p50, "ms"),
               ("cells_per_s", rate, "cells/s"), ("peak_rss_mb", data["peak_rss_mb"], "MB")],
        lines=lines, problems=data["problems"], ledger=ledger,
    )


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def source_digest() -> str:
    """Content hash of the program's sources (the checkout may not be a git tree)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    import numpy

    from perfbench import fixtures

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "platform": platform.platform(),
        "git_commit": git_commit(), "source_digest": source_digest(),
        "model": f"{fixtures.MODEL_NAME} ({fixtures.PROFILE} profile)",
        "quantizer": f"{fixtures.QUANT_METHOD.upper()}-{fixtures.QUANT_BITS}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's sources are missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    try:
        import numpy  # noqa: F401

        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out_stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.workload == "sweep":
            result = run_sweep(args.seed, args.seconds, trace, workdir, out_stem)
        else:
            result = run_http(args.workload, args.seed, args.seconds, trace, workdir, out_stem)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    from perfbench.stats import summarize

    info = provenance(args.workload, args.seed, args.seconds, trace)
    e2e = result.end_to_end()
    error_rate = result.failed / result.attempted
    print("provenance: " + json.dumps(info, sort_keys=True))
    for line in result.lines:
        print(line)
    for problem in result.problems:
        print(f"FAILURE: {problem}")
    print(f"workload metrics ({args.workload}):")
    for name, value, unit in result.named + [("error_rate", error_rate, "ratio")]:
        print(f"  {name:<24} {value:>12.4f} {unit}")
    tail = summarize(result.samples_ms)
    if tail["tail_q"] is not None:
        print(f"  (pooled over n={tail['n']} samples: p50 {tail['p50']:.4f} ms, highest "
              f"percentile with >=10 samples beyond it p{tail['tail_q']:g} "
              f"{tail['tail']:.4f} ms)")
    print(f"  {'setup_s':<24} {e2e['setup_s']:>12.4f} s  "
          f"(median of {len(result.setup_s)}: "
          + ", ".join(f"{s:.3f}" for s in result.setup_s) + ")")
    if result.ledger is not None:
        print("per-layer ledger (p50 per request/cell, n = units; counts exact):")
        for row in result.ledger.table():
            print(row)
        metrics = result.ledger.metrics()
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    report = {"provenance": info, "end_to_end": e2e, "named": result.named,
              "error_rate": error_rate, "setup_runs_s": result.setup_s,
              "lines": result.lines, "problems": result.problems, "metrics": metrics,
              "counts": result.ledger.counts if result.ledger is not None else None}
    out_stem.with_suffix(".json").write_text(json.dumps(report, indent=2, default=str))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

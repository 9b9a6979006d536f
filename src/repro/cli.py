"""The ``repro`` command-line interface.

Seven sub-commands expose the watermarking engine, the verification service,
the robustness gauntlet and the repo's own static analysis from a shell:

``repro insert``
    Watermark a simulated model — with ``--owners N``, insert N co-resident
    independently keyed watermarks into **one** model on disjoint slot
    pools (collision-aware allocation), verify every owner extracts at
    100% WER, and optionally save the keys or register them into a
    registry directory.

``repro serve``
    Run the asyncio verification server in the foreground, backed by a
    persistent key registry directory.

``repro verify``
    Offline ownership check: load a registry and a saved suspect model
    (:func:`repro.service.codec.save_model` layout) and sweep the suspect
    against the registered keys directly on the engine — the same code path
    the server batches, without the HTTP hop.

``repro loadgen``
    Closed-loop load generator against a running server.

``repro audit``
    Occupancy audit: re-verify per model fingerprint that every co-resident
    key set reproduces pairwise-disjoint slot sets, either offline against a
    registry directory or remotely against a running server.  Exit 0 means
    disjoint, 1 a collision; a missing registry or an unreachable server is
    exit 2.

``repro check``
    Repo-specific static analysis: run the invariant rules in
    :mod:`repro.analysis` (seeded RNGs only, telemetry purity,
    shared-memory unlink-once, fork-safe locks, ...) over source trees,
    with a committed-baseline workflow for grandfathering.

``repro gauntlet``
    Robustness gauntlet: watermark a simulated model (any quantization
    backend, including GPTQ) and sweep the registered removal attacks
    against it in parallel (Figures 2a/2b at arbitrary grid shapes, plus
    scale tampering, outlier rewrites, structured pruning, the adaptive
    attacker and model souping), printing the per-cell table, the
    per-attack worst-case WER and the quality-vs-WER frontier.  Every
    executor releases each attacked model as soon as it is verified, so
    grid size is not bounded by memory.

Installed as a console script via ``pyproject.toml``; also runnable as
``python -m repro.cli`` (or ``python -m repro``) on a plain ``PYTHONPATH=src``
checkout.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.utils.logging import configure, get_logger

__all__ = ["build_parser", "main"]

logger = get_logger("cli")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser with all sub-commands."""
    from repro.models.registry import list_model_names

    # No prefix matching anywhere: `--mode` must not silently read as `--model`.
    parser = argparse.ArgumentParser(
        prog="repro",
        allow_abbrev=False,
        description="EmMark reproduction: watermark ownership-verification service tools.",
    )
    parser.add_argument("--log-level", default=None, metavar="LEVEL",
                        help="console log level (DEBUG, INFO, ...; default: "
                             "REPRO_LOG_LEVEL environment variable, then INFO)")
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    insert = sub.add_parser("insert", help="watermark a model (multi-owner capable)")
    insert.add_argument("--model", default="opt-2.7b-sim", choices=list_model_names(),
                        help="simulated model name (default: opt-2.7b-sim)")
    insert.add_argument("--bits", type=int, default=4, choices=(8, 4),
                        help="quantization precision (default: 4)")
    insert.add_argument("--profile", default="smoke", choices=["smoke", "default"],
                        help="training profile of the sim model (default: smoke)")
    insert.add_argument("--quant", default="auto",
                        choices=["auto", "rtn", "smoothquant", "llm_int8", "awq", "gptq"],
                        help="quantization backend (default: auto — the paper's "
                             "pairing for the model family and precision)")
    insert.add_argument("--owners", type=int, default=1,
                        help="co-resident owners to insert; each gets a disjoint "
                             "slot pool and an independent key (default: 1)")
    insert.add_argument("--registry", metavar="DIR", default=None,
                        help="register every owner's key into this registry directory")
    insert.add_argument("--output", metavar="DIR", default=None,
                        help="save each owner's key under DIR/<owner-id>/")
    insert.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    serve = sub.add_parser("serve", help="run the verification server")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8420, help="bind port (default: 8420; 0 = ephemeral)")
    serve.add_argument("--registry", metavar="DIR", default=None,
                       help="persistent key-registry directory (default: in-memory)")
    serve.add_argument("--audit-log", metavar="PATH", default=None,
                       help="JSONL audit log of every ownership decision")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="max verification requests coalesced per engine sweep")
    serve.add_argument("--max-queue", type=int, default=256,
                       help="pending-request bound before returning 503")
    serve.add_argument("--rate-limit", type=float, default=None,
                       help="token-bucket sustained requests/sec (default: unlimited)")
    serve.add_argument("--burst", type=float, default=None,
                       help="token-bucket burst capacity (default: one second of rate)")
    serve.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                       help="directory for background-job cell checkpoints; jobs "
                            "resubmitted after a cancel/crash/restart resume from "
                            "their content-addressed JSONL file")
    serve.add_argument("--trace", metavar="PATH", default=None,
                       help="record engine/gauntlet trace spans while serving and "
                            "write Chrome trace_event JSON here on shutdown "
                            "(load in Perfetto / chrome://tracing)")

    verify = sub.add_parser("verify", help="offline ownership check against a registry")
    verify.add_argument("--registry", metavar="DIR", required=True,
                        help="key-registry directory (see 'repro serve --registry')")
    verify.add_argument("--suspect", metavar="DIR", required=True,
                        help="saved suspect model directory (model.json + model.npz)")
    verify.add_argument("--key-id", action="append", default=None,
                        help="check only this key id (repeatable; default: all active keys)")
    verify.add_argument("--wer-threshold", type=float, default=None,
                        help="ownership WER threshold in percent (default: 90)")
    verify.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    loadgen = sub.add_parser("loadgen", help="closed-loop load test against a running server")
    loadgen.add_argument("--host", default="127.0.0.1", help="server address")
    loadgen.add_argument("--port", type=int, default=8420, help="server port")
    loadgen.add_argument("--concurrency", type=int, default=4, help="concurrent users")
    loadgen.add_argument("--duration", type=float, default=None,
                         help="run for this many seconds (mutually exclusive with --requests)")
    loadgen.add_argument("--requests", type=int, default=None,
                         help="stop after this many request attempts (completed + "
                              "rate-limited + errored)")
    loadgen.add_argument("--suspect", metavar="DIR", action="append", default=None,
                         help="saved model directory to upload as a suspect before the run "
                              "(repeatable; uploaded as suspect-0, suspect-1, …)")
    loadgen.add_argument("--suspect-id", action="append", default=None,
                         help="already-uploaded suspect id to target (repeatable)")
    loadgen.add_argument("--key-id", action="append", default=None,
                         help="restrict verification to these key ids (repeatable)")
    loadgen.add_argument("--output", metavar="PATH", default=None,
                         help="write the JSON report here as well as stdout")

    audit = sub.add_parser("audit", help="occupancy audit: co-resident keys on disjoint slots")
    audit.add_argument("--registry", metavar="DIR", default=None,
                       help="audit this key-registry directory offline (re-derives every "
                            "model fingerprint's slot sets through the engine)")
    audit.add_argument("--host", default="127.0.0.1",
                       help="server address for a remote audit (default: 127.0.0.1)")
    audit.add_argument("--port", type=int, default=8420,
                       help="server port; the server audits its own registry via "
                            "GET /v1/audit (default: 8420)")
    audit.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    check = sub.add_parser("check", help="repo-invariant static analysis")
    check.add_argument("paths", nargs="*", default=["src"], metavar="PATH",
                       help="files or directories to scan (default: src)")
    check.add_argument("--rule", action="append", default=None, metavar="ID",
                       help="run only this rule id, e.g. REP002 (repeatable; "
                            "default: all rules)")
    check.add_argument("--baseline", metavar="FILE", default=None,
                       help="suppress violations recorded in this baseline file")
    check.add_argument("--write-baseline", metavar="FILE", default=None,
                       help="snapshot current findings to FILE and exit 0")
    check.add_argument("--list-rules", action="store_true",
                       help="print the rule catalog and exit")
    check.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")

    gauntlet = sub.add_parser("gauntlet", help="parallel attack-robustness sweep")
    gauntlet.add_argument("--model", default="opt-2.7b-sim", choices=list_model_names(),
                          help="simulated model name (default: opt-2.7b-sim)")
    gauntlet.add_argument("--bits", type=int, default=4, choices=(8, 4),
                          help="quantization precision (default: 4)")
    gauntlet.add_argument("--profile", default="smoke", choices=["smoke", "default"],
                          help="training profile of the sim model (default: smoke)")
    gauntlet.add_argument("--quant", default="auto",
                          choices=["auto", "rtn", "smoothquant", "llm_int8", "awq", "gptq"],
                          help="quantization backend (default: auto — the paper's "
                               "pairing for the model family and precision)")
    gauntlet.add_argument("--executor", default="thread",
                          choices=["serial", "thread", "process", "auto"],
                          help="who runs the cells: serial (one worker, in-process), "
                               "thread (thread pool), process (worker processes over "
                               "shared-memory model residents — GIL-free attack "
                               "stages), or auto (serial on single-core boxes / tiny "
                               "grids, process otherwise) (default: thread)")
    gauntlet.add_argument("--start-method", default=None,
                          choices=["fork", "spawn", "forkserver"],
                          help="multiprocessing start method for the process "
                               "executor (default: REPRO_GAUNTLET_START_METHOD, "
                               "then the platform default)")
    gauntlet.add_argument("--attack", action="append", default=None, metavar="NAME",
                          help="attack to include (repeatable; default: every "
                               "registered attack)")
    gauntlet.add_argument("--strengths", action="append", default=None,
                          metavar="NAME=V1,V2,...",
                          help="strength sweep for one attack, e.g. "
                               "overwrite=0,100,300 (repeatable; default: the "
                               "attack's own sweep)")
    gauntlet.add_argument("--workers", type=int, default=None,
                          help="worker-pool width (default: auto)")
    gauntlet.add_argument("--seed", type=int, default=0, help="attacker RNG root seed")
    gauntlet.add_argument("--no-quality", action="store_true",
                          help="skip perplexity / zero-shot evaluation (WER only)")
    gauntlet.add_argument("--checkpoint", metavar="PATH", default=None,
                          help="append each completed cell to this JSONL checkpoint "
                               "(resumes automatically when the file already exists)")
    gauntlet.add_argument("--resume", metavar="PATH", default=None,
                          help="resume from an existing checkpoint written by a "
                               "previous --checkpoint run (must exist; implies "
                               "--checkpoint PATH)")
    gauntlet.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    gauntlet.add_argument("--output", metavar="PATH", default=None,
                          help="write the JSON report here as well as stdout")
    gauntlet.add_argument("--progress", action="store_true",
                          help="live stderr progress line (cells done/total, rate, "
                               "ETA, per-attack min WER)")
    gauntlet.add_argument("--trace", metavar="PATH", default=None,
                          help="write Chrome trace_event JSON of the sweep here "
                               "(plan/score/verify/cell spans across all workers; "
                               "load in Perfetto / chrome://tracing)")
    return parser


# ----------------------------------------------------------------------
# Sub-command implementations (imports deferred so --help stays instant)
# ----------------------------------------------------------------------
def _cmd_insert(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.common import insert_multi_owner, prepare_context
    from repro.utils.tables import Table, format_float

    if args.owners < 1:
        print("error: --owners must be >= 1", file=sys.stderr)
        return 2
    quant_method = None if args.quant == "auto" else args.quant
    logger.info("preparing %s (INT%d, %s quantization, %s profile)...",
                args.model, args.bits, args.quant, args.profile)
    context = prepare_context(args.model, args.bits, profile=args.profile,
                              num_task_examples=16, quant_method=quant_method)
    result = insert_multi_owner(context, args.owners)
    # Every owner is verified independently against the one deployed model.
    fleet = context.engine.verify_fleet({"deployment": result.model}, result.keys())
    by_owner = {pair.key_id: pair for pair in fleet.pairs}

    if args.registry:
        from repro.service.registry import KeyRegistry

        registry = KeyRegistry(args.registry, engine=context.engine)
        for owner_id, key in result.keys().items():
            registry.register(key, owner=owner_id)
        logger.info("registered %d keys into %s", result.num_owners, args.registry)
    if args.output:
        for owner_id, key in result.keys().items():
            key.save(Path(args.output) / owner_id)
        logger.info("saved %d keys under %s", result.num_owners, args.output)

    rows = []
    for item in result.items:
        pair = by_owner[item.owner_id]
        rows.append({
            "owner": item.owner_id,
            "key_fingerprint": item.key.fingerprint(),
            "total_bits": item.report.total_bits,
            "wer_percent": pair.wer_percent,
            "owned": pair.owned,
            "co_residents": item.key.co_residents,
        })
    if args.json:
        print(json.dumps({
            "model": args.model,
            "bits": args.bits,
            "owners": result.num_owners,
            "occupied_slots": result.allocator.total_slots,
            "decisions": rows,
        }, indent=2, sort_keys=True))
    else:
        table = Table(
            title=(f"Multi-owner insertion: {result.num_owners} owners co-resident "
                   f"in {args.model} (INT{args.bits})"),
            columns=["Owner", "Key", "Bits", "WER (%)", "Owned", "Co-residents"],
        )
        for row in rows:
            table.add_row([
                row["owner"],
                row["key_fingerprint"],
                row["total_bits"],
                format_float(row["wer_percent"]),
                "yes" if row["owned"] else "no",
                ",".join(row["co_residents"]) or "-",
            ])
        print(table.render())
        print(f"  {result.allocator.total_slots} slots allocated across "
              f"{len(result.allocator.snapshot())} layers; "
              f"{result.wall_clock_seconds:.3f}s wall clock")
    return 0 if all(row["owned"] and row["wer_percent"] == 100.0 for row in rows) else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.engine.engine import EngineConfig, WatermarkEngine
    from repro.service.audit import AuditLog
    from repro.service.registry import KeyRegistry
    from repro.service.server import ServiceConfig, VerificationServer

    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
            rate_limit_per_sec=args.rate_limit,
            rate_limit_burst=args.burst,
            checkpoint_dir=args.checkpoint_dir,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    engine = WatermarkEngine(EngineConfig())
    registry = KeyRegistry(args.registry, engine=engine)
    server = VerificationServer(
        engine=engine,
        registry=registry,
        audit=AuditLog(args.audit_log),
        config=config,
    )
    collector = None
    if args.trace:
        from repro.obs.trace import TraceCollector, set_collector

        collector = TraceCollector()
        set_collector(collector)

    async def run() -> None:
        await server.start()
        print(f"verification server listening on http://{args.host}:{server.port}")
        print(f"registry: {args.registry or '(in-memory)'} — {len(registry)} keys")
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        if collector is not None:
            from repro.obs.trace import set_collector

            set_collector(None)
            collector.save(args.trace)
            print(f"[trace written to {args.trace}]", file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.engine.engine import WatermarkEngine
    from repro.engine.reports import DEFAULT_OWNERSHIP_THRESHOLD
    from repro.service.codec import load_model
    from repro.service.registry import KeyRegistry, RegistryError

    if not _registry_exists(args.registry):
        return 2
    try:
        suspect = load_model(args.suspect)
    except OSError as exc:
        # Exit 1 means "not owned": an unreadable suspect must not read as one.
        print(f"error: cannot load suspect {args.suspect!r}: {exc}", file=sys.stderr)
        return 2
    engine = WatermarkEngine()
    registry = KeyRegistry(args.registry, engine=engine)
    try:
        keys = registry.active_keys(args.key_id)
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not keys:
        print("error: registry holds no active keys", file=sys.stderr)
        return 2
    threshold = args.wer_threshold if args.wer_threshold is not None else DEFAULT_OWNERSHIP_THRESHOLD
    report = engine.verify_fleet(
        {"suspect": suspect}, keys, wer_threshold=threshold
    )
    if args.json:
        print(json.dumps({"decisions": [pair.to_dict() for pair in report.pairs]}, indent=2))
    else:
        print(report.summary())
    return 0 if report.owned_pairs() else 1


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.service.client import VerificationClient
    from repro.service.codec import load_model
    from repro.service.loadgen import LoadConfig, RequestTemplate, run_load

    if (args.duration is None) == (args.requests is None):
        print("error: set exactly one of --duration / --requests", file=sys.stderr)
        return 2
    key_ids = tuple(args.key_id) if args.key_id else None
    suspect_ids: List[str] = list(args.suspect_id or [])
    if args.suspect:
        client = VerificationClient(args.host, args.port)
        try:
            for index, directory in enumerate(args.suspect):
                uploaded = client.upload_suspect(load_model(directory), f"suspect-{index}")
                suspect_ids.append(uploaded["suspect_id"])
        finally:
            client.close()
    templates = [RequestTemplate(sid, key_ids=key_ids, label=sid) for sid in suspect_ids]
    if not templates:
        print("error: no suspects (use --suspect and/or --suspect-id)", file=sys.stderr)
        return 2
    report = run_load(
        LoadConfig(
            host=args.host,
            port=args.port,
            concurrency=args.concurrency,
            duration_seconds=args.duration,
            total_requests=args.requests,
            templates=templates,
            collect_decisions=False,
        )
    )
    print(report.summary())
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"[written to {args.output}]")
    else:
        print(payload)
    return 0 if report.completed else 1


def _registry_exists(path: str) -> bool:
    """Read-only commands never create a registry: a missing directory is a
    usage error (reported on stderr), not an empty registry."""
    from pathlib import Path

    if Path(path).is_dir():
        return True
    print(f"error: registry directory {path!r} does not exist", file=sys.stderr)
    return False


def _cmd_audit(args: argparse.Namespace) -> int:
    if args.registry:
        from repro.engine import EngineConfig, WatermarkEngine
        from repro.service.occupancy import occupancy_audit
        from repro.service.registry import KeyRegistry

        if not _registry_exists(args.registry):
            return 2
        registry = KeyRegistry(args.registry)
        report = occupancy_audit(registry, WatermarkEngine(EngineConfig()))
        payload = report.to_dict()
    else:
        from http.client import HTTPException

        from repro.service.client import ServiceError, VerificationClient

        client = VerificationClient(args.host, args.port)
        try:
            payload = client._request("GET", "/v1/audit")["audit"]
        except (OSError, HTTPException, ServiceError) as exc:
            # Exit 1 means COLLISION: a failed request must not read as one.
            print(f"error: cannot audit {args.host}:{args.port}: {exc}", file=sys.stderr)
            return 2
        finally:
            client.close()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        status = "DISJOINT" if payload["ok"] else "COLLISION"
        print(f"occupancy audit: {status} — {payload['models']} model fingerprint(s), "
              f"{payload['collisions']} collision(s), digest {payload['digest']}")
        for verdict in payload.get("verdicts", []):
            if verdict.get("disjoint"):
                continue
            collision = verdict.get("collision") or {}
            print(f"  COLLISION {verdict['model_fingerprint']}: layer "
                  f"{collision.get('layer')} indices {collision.get('indices')} "
                  f"already held by {collision.get('holder')}")
    return 0 if payload["ok"] else 1


def _parse_strengths(raw: Optional[List[str]]) -> dict:
    """Parse repeated ``NAME=V1,V2,...`` strength overrides."""
    strengths = {}
    for item in raw or []:
        name, sep, values = item.partition("=")
        if not sep or not values:
            raise ValueError(f"--strengths expects NAME=V1,V2,... (got {item!r})")
        try:
            strengths[name.strip()] = tuple(float(v) for v in values.split(","))
        except ValueError as exc:
            raise ValueError(f"non-numeric strength in {item!r}") from exc
    return strengths


def _cmd_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import Baseline, all_rules, run_checks

    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.name:22s} {rule.description}")
        return 0
    if args.rule:
        known = {rule.rule_id for rule in rules}
        unknown = sorted(set(args.rule) - known)
        if unknown:
            print(f"error: unknown rule ids {unknown}; known: {sorted(known)}",
                  file=sys.stderr)
            return 2
        rules = [rule for rule in rules if rule.rule_id in set(args.rule)]
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path(s): {missing}", file=sys.stderr)
        return 2
    baseline = None
    if args.baseline and not args.write_baseline:
        try:
            baseline = Baseline.load(Path(args.baseline))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    result = run_checks(args.paths, rules=rules, baseline=baseline)
    if args.write_baseline:
        Baseline.from_violations(result.violations).write(Path(args.write_baseline))
        print(f"baseline with {len(result.violations)} finding(s) written to "
              f"{args.write_baseline}")
        return 0
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.render())
    return 0 if result.ok else 1


def _cmd_gauntlet(args: argparse.Namespace) -> int:
    import contextlib

    from repro.core.emmark import EmMark
    from repro.experiments.common import prepare_context
    from repro.obs.trace import TraceCollector, tracing
    from repro.robustness import (
        ATTACK_REGISTRY,
        GauntletSubject,
        available_attacks,
        build_attack,
        run_gauntlet,
    )
    from repro.utils.logging import run_context

    try:
        strengths = _parse_strengths(args.strengths)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attack_names = args.attack or available_attacks()
    unknown = sorted(set(attack_names) - set(available_attacks()))
    if unknown:
        print(f"error: unknown attacks {unknown}; available: {available_attacks()}",
              file=sys.stderr)
        return 2
    duplicates = sorted({name for name in attack_names if attack_names.count(name) > 1})
    if duplicates:
        print(f"error: duplicate --attack flags: {duplicates}", file=sys.stderr)
        return 2
    # Validate the grid before the expensive model preparation: a typo in
    # --strengths must not cost a training + insertion run.
    orphaned = sorted(set(strengths) - set(attack_names))
    if orphaned:
        print(f"error: --strengths given for attacks not in the grid: {orphaned}",
              file=sys.stderr)
        return 2
    try:
        for name, values in strengths.items():
            for value in values:
                ATTACK_REGISTRY[name].check_strength(value)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checkpoint = args.checkpoint
    if args.resume:
        if args.checkpoint and args.checkpoint != args.resume:
            print("error: --resume and --checkpoint name different files; pass one",
                  file=sys.stderr)
            return 2
        if not Path(args.resume).exists():
            print(f"error: --resume checkpoint {args.resume} does not exist "
                  "(use --checkpoint to start a new one)", file=sys.stderr)
            return 2
        checkpoint = args.resume
    quant_method = None if args.quant == "auto" else args.quant
    logger.info("preparing watermarked %s (INT%d, %s quantization, %s profile)...",
                args.model, args.bits, args.quant, args.profile)
    context = prepare_context(args.model, args.bits, profile=args.profile,
                              num_task_examples=16, quant_method=quant_method)
    emmark = EmMark(context.emmark_config, engine=context.engine)
    watermarked, key, _ = emmark.insert_with_key(
        context.fresh_quantized(), context.activations
    )
    attacks = [
        build_attack(
            name,
            calibration_corpus=context.harness.calibration_corpus,
            # True two-clone scenarios watermark a second clone of the same
            # virgin base with owner-grade activation statistics.
            base_model=context.quantized,
            base_activations=context.activations,
        )
        for name in attack_names
    ]
    collector = TraceCollector() if args.trace else None
    with run_context(f"gauntlet-{args.model}"):
        with tracing(collector) if collector is not None else contextlib.nullcontext():
            report = run_gauntlet(
                {args.model: GauntletSubject(
                    model=watermarked, key=key, harness=context.harness)},
                attacks,
                strengths=strengths or None,
                checkpoint=checkpoint,
                engine=context.engine,
                max_workers=args.workers,
                seed=args.seed,
                evaluate_quality=not args.no_quality,
                executor=args.executor,
                start_method=args.start_method,
                progress=args.progress,
            )
    if collector is not None:
        collector.save(args.trace)
        print(f"[trace written to {args.trace}]", file=sys.stderr)
    payload = report.to_json()
    if args.json:
        print(payload)
    else:
        print(report.render())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"[written to {args.output}]", file=sys.stderr)
    # Exit 0 while the watermark's worst case stays above the ownership
    # threshold everywhere; 1 when some attack in the grid removed it.
    return 0 if all(cell.owned for cell in report.cells) else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (returns the process exit code)."""
    args = build_parser().parse_args(argv)
    # One logging setup for every sub-command: --log-level, then the
    # REPRO_LOG_LEVEL environment variable, then INFO (see resolve_level).
    configure(args.log_level)
    if args.command == "insert":
        return _cmd_insert(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "gauntlet":
        return _cmd_gauntlet(args)
    if args.command == "check":
        return _cmd_check(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

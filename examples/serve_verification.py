"""End-to-end demo of the watermark verification service.

The full owner story, in one script:

1. train + quantize a small simulated LLM and watermark it (the "release"),
2. start the verification server with a persistent key registry,
3. register the owner's key and upload two deployment snapshots — one that
   carries the watermark and one clean rebuild,
4. fire concurrent verification traffic at the server (closed-loop load
   generator with a hit/miss mix),
5. read back the ownership verdicts, the micro-batching behaviour and the
   plan-cache efficiency from ``/stats``,
6. run a robustness sweep as a **background job**: submit (202 + job id),
   stream the per-cell NDJSON events live, cancel it mid-run, then resubmit
   the identical request — the completed cells replay from the on-disk
   checkpoint and the final decision digest is bit-identical to an
   uninterrupted run.

Run with::

    PYTHONPATH=src python examples/serve_verification.py
"""

import tempfile
from pathlib import Path

from repro.core.config import EmMarkConfig
from repro.data.wikitext import build_wikitext_sim
from repro.engine import EngineConfig, WatermarkEngine
from repro.models.activations import collect_activation_stats
from repro.models.config import ModelConfig
from repro.models.training import TrainingConfig, train_language_model
from repro.models.transformer import TransformerLM
from repro.quant.api import quantize_model
from repro.service import (
    AuditLog,
    KeyRegistry,
    LoadConfig,
    RequestTemplate,
    ServiceConfig,
    ServiceError,
    VerificationClient,
    VerificationServer,
    run_in_background,
    run_load,
)


def build_release():
    """Train, quantize and watermark the model the owner ships."""
    print("== 1. building + watermarking the release model ==")
    dataset = build_wikitext_sim(
        vocab_size=128, train_tokens=12_000, validation_tokens=3_000,
        calibration_tokens=2_000, seed=7,
    )
    config = ModelConfig(
        name="demo-opt", vocab_size=128, d_model=32, n_layers=2, n_heads=2,
        d_ff=64, max_seq_len=32, family="opt", virtual_params_billions=0.125,
    )
    model = TransformerLM(config, seed=0)
    train_language_model(
        model, dataset.train,
        TrainingConfig(steps=60, batch_size=8, sequence_length=25, learning_rate=1e-2, seed=0),
    )
    activations = collect_activation_stats(model, dataset.calibration)
    quantized = quantize_model(model, "awq", bits=4, activations=activations)
    emmark = EmMarkConfig.scaled_for_model(quantized, bits_per_layer=8)
    watermarked, key, report = WatermarkEngine().insert(quantized, activations, config=emmark)
    print(f"   inserted {report.total_bits} bits into {report.num_layers} layers "
          f"in {report.wall_clock_seconds * 1000:.1f}ms")
    return quantized, watermarked, key


def main():
    clean, watermarked, key = build_release()

    with tempfile.TemporaryDirectory() as tmp:
        registry_dir = Path(tmp) / "registry"
        audit_path = Path(tmp) / "audit.jsonl"
        server = VerificationServer(
            registry=KeyRegistry(registry_dir),
            audit=AuditLog(audit_path),
            config=ServiceConfig(
                port=0, max_wait_ms=2.0, checkpoint_dir=Path(tmp) / "checkpoints"
            ),
        )
        print("\n== 2. starting the verification server ==")
        with run_in_background(server) as handle:
            print(f"   listening on 127.0.0.1:{handle.port}, registry at {registry_dir}")

            print("\n== 3. registering the key + uploading deployment snapshots ==")
            with VerificationClient(port=handle.port) as client:
                record = client.register_key(
                    key, owner="acme-ml", metadata={"release": "v1.0"}
                )
                print(f"   key {record['key_id']} registered to {record['owner']!r}")
                client.upload_suspect(watermarked, suspect_id="prod-deployment")
                client.upload_suspect(clean, suspect_id="competitor-rebuild")

                print("\n== 4. single verifications ==")
                for suspect_id in ("prod-deployment", "competitor-rebuild"):
                    decision = client.verify(suspect_id=suspect_id)["decisions"][0]
                    verdict = "OWNED" if decision["owned"] else "not owned"
                    print(f"   {suspect_id}: WER {decision['wer_percent']:.1f}%, "
                          f"P_c {decision['false_claim_probability']:.2e} → {verdict}")

            print("\n== 5. concurrent load (closed loop, hit/miss mix) ==")
            report = run_load(LoadConfig(
                port=handle.port,
                concurrency=4,
                total_requests=80,
                templates=[
                    RequestTemplate("prod-deployment", label="hit"),
                    RequestTemplate("competitor-rebuild", label="miss"),
                ],
                collect_decisions=False,
            ))
            print(f"   {report.summary()}")

            with VerificationClient(port=handle.port) as client:
                stats = client.stats()
            dispatcher = stats["dispatcher"]
            registry = stats["registry"]
            print("\n== 6. serving statistics ==")
            print(f"   micro-batching: {dispatcher['jobs_dispatched']} requests in "
                  f"{dispatcher['batches']} engine sweeps "
                  f"(mean batch {dispatcher['mean_batch_size']:.1f}, "
                  f"largest {dispatcher['largest_batch']})")
            print(f"   registry: {registry['tickets']} verification ticket(s) resident, "
                  f"{registry['key_loads']} key loads (a ticket is derived once per key; "
                  f"verifications never touch plans or full keys)")
            print(f"   audit log: {stats['audit']['entries']} ownership decisions "
                  f"recorded at {audit_path.name}")

            print("\n== 7. background robustness job: submit -> stream -> resume ==")
            attacks = [{"name": "overwrite", "strengths": [0, 40, 80]},
                       {"name": "pruning", "strengths": [0.3, 0.5]}]
            with VerificationClient(port=handle.port) as client:
                job = client.submit_robustness_job(
                    "prod-deployment", attacks=attacks, seed=11, executor="serial"
                )
                print(f"   job {job.job_id} accepted "
                      f"({job.last_status['total_cells']} cells, "
                      f"checkpoint {Path(job.last_status['checkpoint']).name})")
                stream = job.events()
                first = next(stream)       # live verdict while the sweep runs
                print(f"   first streamed cell: {first['cell_id']} "
                      f"(owned={first['cell']['owned']})")
                stream.close()
                try:
                    job.cancel()           # cooperative: stops at a cell boundary
                except ServiceError:
                    pass                   # tiny demo grids can outrun the cancel
                interrupted = job.wait()
                print(f"   {interrupted['state']} after "
                      f"{interrupted['completed_cells']} of "
                      f"{interrupted['total_cells']} cells (all checkpointed)")

                # Identical request -> same grid fingerprint -> resume from disk.
                resumed = client.submit_robustness_job(
                    "prod-deployment", attacks=attacks, seed=11, executor="serial"
                )
                replayed = sum(1 for event in resumed.events()
                               if event["kind"] == "cell" and event["replayed"])
                report = resumed.report()["report"]
                print(f"   resumed: {replayed} cells replayed from the checkpoint, "
                      f"{report['num_cells'] - replayed} computed fresh")
                print(f"   decision digest {report['decision_digest'][:16]}… "
                      f"(bit-identical to an uninterrupted sweep)")
        print("\ndone — server stopped, registry persisted for the next start.")


if __name__ == "__main__":
    main()

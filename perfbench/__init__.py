"""Repository benchmark: workloads, tracing and the per-layer ledger (see README.md)."""

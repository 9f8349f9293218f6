"""Repository benchmark: ingest, serve and churn workloads (see run.py)."""

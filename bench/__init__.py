"""Benchmark ledger for the repro-dve reproduction (see ``bench/README.md``)."""

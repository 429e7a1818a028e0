"""Unified experiment engine (see DESIGN.md, "Experiment engine").

Declarative :class:`~repro.engine.job.SimJob` specs, pluggable executors
(serial / worker pool, selected by ``REPRO_JOBS``), a persistent
result cache (``REPRO_CACHE_DIR``) and the batch API every experiment
driver runs on.
"""

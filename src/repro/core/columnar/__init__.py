"""Columnar dump analysis (vectorized three-layer translation and
group-by accounting).

* :mod:`.backend` — the int64 column kernels (interval, exact and
  membership joins, ``owner_reduce``, ``group_sizes``) and the
  pure-python interval helpers :func:`~.backend.merge_intervals` /
  :func:`~.backend.point_in_intervals`;
* :mod:`.lower` — a dump lowered to interned tags, users and cells plus
  per-guest and per-process lookup tables;
* :mod:`.pipeline` — the three-layer walk as mapping chunks, and
  :func:`~.pipeline.owner_accounting_columnar` /
  :func:`~.pipeline.distribution_accounting_columnar` over them.

The usual entry point is the façade in :mod:`repro.core.accounting`:
``owner_oriented_accounting(dump)``.  Import from the submodules: the
lowering and pipeline halves import :mod:`repro.core.accounting` (they
produce its result types), while accounting itself needs the interval
helpers of :mod:`.backend`, so this package imports nothing.
"""

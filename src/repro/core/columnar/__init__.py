"""Columnar dump analysis (vectorized three-layer translation and
group-by accounting).

Public surface:

* kernels — :class:`NumpyOps` and the pure-python interval helpers
  :func:`merge_intervals` / :func:`point_in_intervals`;
* accounting — :func:`owner_accounting_columnar`,
  :func:`distribution_accounting_columnar`, and the bounded-memory
  :func:`stream_owner_accounting` /
  :class:`StreamingOwnerAccumulator`;
* building blocks — :func:`build_registry`, :func:`lower_guest`,
  :func:`lower_process`, :func:`resolve_process_columns`,
  :func:`iter_mapping_chunks` for callers composing their own passes.

The usual entry point is the façade in :mod:`repro.core.accounting`:
``owner_oriented_accounting(dump)``.

The lowering/pipeline halves import :mod:`repro.core.accounting` (they
produce its result types), while accounting itself needs the interval
helpers from here — so those halves load lazily (PEP 562) and only
:mod:`.backend`, which has no repro dependencies, loads eagerly.
"""

from .backend import NumpyOps, merge_intervals, point_in_intervals

_LOWER_EXPORTS = frozenset((
    "Registry",
    "build_registry",
    "lower_guest",
    "lower_process",
))
_PIPELINE_EXPORTS = frozenset((
    "StreamingOwnerAccumulator",
    "distribution_accounting_columnar",
    "iter_mapping_chunks",
    "owner_accounting_columnar",
    "resolve_process_columns",
    "stream_owner_accounting",
))

__all__ = [
    "NumpyOps",
    "merge_intervals",
    "point_in_intervals",
    *sorted(_LOWER_EXPORTS),
    *sorted(_PIPELINE_EXPORTS),
]


def __getattr__(name: str):
    if name in _LOWER_EXPORTS:
        from . import lower

        return getattr(lower, name)
    if name in _PIPELINE_EXPORTS:
        from . import pipeline

        return getattr(pipeline, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )

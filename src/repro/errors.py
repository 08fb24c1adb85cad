"""The exception hierarchy of the reproduction.

Everything the pipeline raises on *expected* failure modes — unanalyzable
dumps, malformed fault specifications — derives from :class:`ReproError`,
so the CLI can catch one type and exit with a clean message instead of a
traceback.  Programming errors
(``ValueError`` on bad arguments, ``KeyError`` on unknown names) stay
ordinary Python exceptions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every expected failure of the analysis pipeline."""


class DumpUnanalyzableError(ReproError):
    """A kernel without debug info cannot be analysed by crash(8)."""


class FaultSpecError(ReproError):
    """A ``SEED:RATE`` fault specification could not be parsed."""

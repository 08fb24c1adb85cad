"""The shared content-token index behind the KSM stable/unstable trees.

The kernel keeps two red-black trees keyed by page content (memcmp order):
the **stable tree** of merged, write-protected frames and the per-pass
**unstable tree** of merge candidates.  This model keys both by the page's
content *token*, so a hash probe replaces each tree descent: the stable
tree is a ``token -> fid`` dict, the unstable tree a ``token -> (table,
vpn)`` dict, and :meth:`TokenIndex.lookup` probes the stable dict, then
the unstable one, returning a tagged node the scanner branches on —
stable hits merge immediately, unstable hits go through the staleness
checks.

The index maintains the tree invariant the scanner relies on: **a token
has at most one node**, either stable or unstable, never both.  Promoting
a token to stable (:meth:`set_stable`) atomically retires its unstable
node; installing an unstable candidate over a stable token retires the
stable node; re-inserting an unstable candidate replaces the previous
one (the scanner's stale-drop path).

Keeping the trees in separate dicts makes the ``FULL`` policy's
end-of-pass discard (:meth:`clear_unstable`) a single ``dict.clear`` and
the scanner's fresh-candidate insert
(:meth:`bulk_set_unstable_fresh`) a single ``dict.update``, while
stable-node iteration (the statistics gauges, recorded once per pass)
stays O(stable) however many candidates the ``INCREMENTAL`` policy keeps
alive across passes.

While the scanner replays a quiescent ``FULL`` pass (see
:mod:`repro.ksm.scanner`), the candidates it would insert stay in its
replay record and are only counted here (:meth:`add_replayed`), so
:attr:`unstable_count` is exact at every point; the scanner inserts
them for real before anything else reads the unstable tree.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.mem.address_space import PageTable

#: Node tags: the first element of every node :meth:`TokenIndex.lookup`
#: returns.
STABLE = "stable"
UNSTABLE = "unstable"

#: A node is ``(STABLE, fid)`` or ``(UNSTABLE, table, vpn)``.
StableNode = Tuple[str, int]
UnstableNode = Tuple[str, "PageTable", int]


class TokenIndex:
    """O(1) token → (stable | unstable) node index."""

    __slots__ = ("_stable", "_unstable", "_stable_rev", "_replayed")

    def __init__(self) -> None:
        #: The stable tree: token -> fid of the merged frame.
        self._stable: Dict[int, int] = {}
        #: The unstable tree: token -> (table, vpn) of the candidate.
        self._unstable: Dict[int, Tuple["PageTable", int]] = {}
        # Bumped whenever the stable node set (or any stable fid) can
        # have changed; lets callers cache stable-tree projections.
        self._stable_rev = 0
        # Unstable candidates of a replayed pass, counted but not stored.
        self._replayed = 0

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------

    def lookup(self, token: int) -> Optional[tuple]:
        """The node for ``token`` — ``(STABLE, fid)``,
        ``(UNSTABLE, table, vpn)`` or None."""
        fid = self._stable.get(token)
        if fid is not None:
            return (STABLE, fid)
        node = self._unstable.get(token)
        if node is not None:
            return (UNSTABLE,) + node
        return None

    def any_node(self, tokens) -> bool:
        """True when at least one of ``tokens`` has a node in either tree
        (two C-level key-view probes, no per-token Python work)."""
        return not (
            self._stable.keys().isdisjoint(tokens)
            and self._unstable.keys().isdisjoint(tokens)
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def set_stable(self, token: int, fid: int) -> None:
        """Install (or replace with) a stable node for ``token``."""
        self._stable[token] = fid
        self._unstable.pop(token, None)
        self._stable_rev += 1

    def set_unstable(self, token: int, table: "PageTable", vpn: int) -> None:
        """Install (or replace with) an unstable candidate for ``token``."""
        self._unstable[token] = (table, vpn)
        if self._stable.pop(token, None) is not None:
            self._stable_rev += 1

    def bulk_set_unstable_fresh(
        self, tokens, table: "PageTable", vpns
    ) -> None:
        """Bulk-insert unstable candidates for tokens with **no** node.

        The scanner's fast path for settled, never-seen content:
        the caller guarantees every token currently has no node (it just
        observed that with no intervening mutation of these tokens), so
        the stable-tree retirement in :meth:`set_unstable` is skipped
        and the whole insert is one ``dict.update``.
        """
        self._unstable.update(zip(tokens, zip(repeat(table), vpns)))

    def drop(self, token: int) -> None:
        """Remove whatever node ``token`` has (no-op when absent)."""
        if self._stable.pop(token, None) is not None:
            self._stable_rev += 1
        else:
            self._unstable.pop(token, None)

    def add_replayed(self, count: int) -> None:
        """Count ``count`` unstable candidates a replayed pass holds in
        its record instead of in the tree."""
        self._replayed += count

    def drop_replayed(self) -> None:
        """Stop counting replayed candidates (the scanner has inserted
        them for real)."""
        self._replayed = 0

    def clear_unstable(self) -> None:
        """Discard every unstable node (the end-of-full-pass reset)."""
        self._unstable.clear()
        self._replayed = 0

    def drop_unstable_for(self, table: "PageTable") -> None:
        """Retire every unstable candidate belonging to ``table``.

        Unregistering a table must remove its rmap items from the
        unstable tree (as the kernel does when an mm goes away);
        otherwise a persistent candidate can later merge a registered
        page against an unregistered table under INCREMENTAL/HYBRID,
        diverging from the FULL fixpoint.
        """
        unstable = self._unstable
        dead = [
            token for token, node in unstable.items() if node[0] is table
        ]
        for token in dead:
            del unstable[token]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def stable_count(self) -> int:
        return len(self._stable)

    @property
    def stable_rev(self) -> int:
        """Changes whenever the stable projection may have changed."""
        return self._stable_rev

    def stable_fids(self) -> List[int]:
        """The fid of every stable node (order unspecified)."""
        return list(self._stable.values())

    @property
    def unstable_count(self) -> int:
        return len(self._unstable) + self._replayed

    def stable_items(self) -> List[Tuple[int, int]]:
        """All (token, fid) stable nodes, as a list safe to mutate over."""
        return list(self._stable.items())

    def __len__(self) -> int:
        return len(self._stable) + self.unstable_count

    def __repr__(self) -> str:
        return (
            f"TokenIndex(stable={self.stable_count}, "
            f"unstable={self.unstable_count})"
        )

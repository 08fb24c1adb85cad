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

The ``FULL`` policy's unstable tree also holds **resting** candidates
(see "Settled segments" in :mod:`repro.ksm.scanner`): pages whose last
examination was a fresh, unchanged insert and which provably have not
changed since.  The scanner keeps them in its worklist columns across
passes and *renews* them a worklist segment at a time instead of
re-inserting them; the index keeps, per table, the highest vpn renewed
in the current generation (:meth:`TokenIndex.renew`) and how many
candidates that renewed.  A resting candidate belongs to the tree once
its table is renewed past its vpn, so it is visible only to pages
examined after it, exactly as a re-inserted one would be, and
:attr:`TokenIndex.unstable_count` counts it.  The end-of-pass discard,
:meth:`TokenIndex.clear_unstable`, is a generation bump for resting
candidates.  :meth:`lookup` and :meth:`with_node` do not see them: before
the scanner probes a token a resting candidate may hold, it takes that
candidate out, handing a renewed one to the tree as an ordinary node
(:meth:`TokenIndex.adopt`).
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

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

    __slots__ = (
        "_stable", "_unstable", "_stable_rev", "_renewed_to", "_renewed",
    )

    def __init__(self) -> None:
        #: The stable tree: token -> fid of the merged frame.
        self._stable: Dict[int, int] = {}
        #: The unstable tree: token -> (table, vpn) of the candidate.
        self._unstable: Dict[int, Tuple["PageTable", int]] = {}
        # Bumped whenever the stable node set (or any stable fid) can
        # have changed; lets callers cache stable-tree projections.
        self._stable_rev = 0
        #: table -> the highest vpn renewed in this generation; resting
        #: candidates at or below it are part of the tree.
        self._renewed_to: Dict["PageTable", int] = {}
        #: table -> resting candidates renewed in this generation.
        self._renewed: Dict["PageTable", int] = {}

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------

    def lookup(self, token: int) -> Optional[tuple]:
        """The node for ``token`` — ``(STABLE, fid)``,
        ``(UNSTABLE, table, vpn)`` or None (resting candidates aside)."""
        fid = self._stable.get(token)
        if fid is not None:
            return (STABLE, fid)
        node = self._unstable.get(token)
        if node is not None:
            return (UNSTABLE,) + node
        return None

    def with_node(self, tokens) -> Set[int]:
        """The tokens among ``tokens`` that have a node in either tree
        (two C-level key-view intersections, no per-token Python work;
        resting candidates aside)."""
        return (self._stable.keys() & tokens) | (
            self._unstable.keys() & tokens
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

    def clear_unstable(self) -> None:
        """Discard every unstable node (the end-of-full-pass reset).

        Resting candidates leave the tree too: a new generation begins,
        in which none is renewed yet.
        """
        self._unstable.clear()
        self._renewed_to.clear()
        self._renewed.clear()

    def drop_unstable_for(self, table: "PageTable") -> None:
        """Retire every unstable candidate belonging to ``table``.

        Unregistering a table must remove its rmap items from the
        unstable tree (as the kernel does when an mm goes away);
        otherwise a persistent candidate can later merge a registered
        page against an unregistered table under INCREMENTAL/HYBRID,
        diverging from the FULL fixpoint.  Its renewed resting
        candidates leave the tree too.
        """
        unstable = self._unstable
        dead = [
            token for token, node in unstable.items() if node[0] is table
        ]
        for token in dead:
            del unstable[token]
        self._renewed_to.pop(table, None)
        self._renewed.pop(table, None)

    # ------------------------------------------------------------------
    # Resting candidates (FULL passes; module docstring)
    # ------------------------------------------------------------------

    def renew(self, table: "PageTable", upto_vpn: int, count: int) -> None:
        """Renew ``table``'s resting candidates up to ``upto_vpn``:
        ``count`` of them, all above the previous mark, join the tree."""
        self._renewed_to[table] = upto_vpn
        self._renewed[table] = self._renewed.get(table, 0) + count

    def renewed(self, table: "PageTable", vpn: int) -> bool:
        """Whether a resting candidate of ``table`` at ``vpn`` is renewed
        in this generation (part of the tree)."""
        return vpn <= self._renewed_to.get(table, -1)

    def adopt(self, token: int, table: "PageTable", vpn: int) -> None:
        """Turn a renewed resting candidate into an ordinary unstable
        node (it stays in the tree, and in the count)."""
        self._renewed[table] -= 1
        self._unstable[token] = (table, vpn)

    def end_renewals(self) -> None:
        """Forget the renewal marks once the scanner has adopted every
        renewed candidate (the policy left FULL mid-pass)."""
        self._renewed_to.clear()
        self._renewed.clear()

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
        """Unstable nodes in the tree, renewed resting ones included."""
        return len(self._unstable) + sum(self._renewed.values())

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

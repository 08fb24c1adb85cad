"""Figure-level aggregations of the accounting results.

* :func:`vm_breakdown` produces Fig. 2 / Fig. 4: per guest VM, the
  physical usage and TPS savings of four groups — the Java process(es),
  other user processes, the guest kernel (incl. buffers and caches), and
  the guest VM (QEMU) itself.

* :func:`java_breakdown` produces Fig. 3 / Fig. 5: per Java process, the
  physical use and TPS-shared amount of each Table-IV category (the
  figures merge the two work areas into "JVM and JIT work").
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.core.accounting import (
    CategoryUsage,
    OwnerAccounting,
    UserKey,
    UserKind,
)
from repro.core.categories import FIGURE_ORDER, MemoryCategory, WORK_GROUP

#: Fig. 2 group labels, in display order.
VM_GROUPS = ("java", "other_processes", "guest_kernel", "guest_vm")

_KIND_TO_GROUP = {
    UserKind.JAVA: "java",
    UserKind.PROCESS: "other_processes",
    UserKind.KERNEL: "guest_kernel",
    UserKind.VM_SELF: "guest_vm",
}


@dataclass
class VmRow:
    """One guest VM's bar in Fig. 2 / Fig. 4."""

    vm_name: str
    vm_index: int
    usage_bytes: Dict[str, int] = field(default_factory=dict)
    shared_bytes: Dict[str, int] = field(default_factory=dict)
    #: resident-but-unclassifiable bytes (nonzero only for damaged dumps).
    unattributable_bytes: int = 0

    def total_usage(self) -> int:
        return sum(self.usage_bytes.values())

    def total_shared(self) -> int:
        return sum(self.shared_bytes.values())

    def usage_bounds(self) -> Tuple[int, int]:
        """[lower, upper] physical usage of this VM under dump damage."""
        usage = self.total_usage()
        return usage, usage + self.unattributable_bytes

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe dict with every figure-visible quantity."""
        return {
            "vm_name": self.vm_name,
            "vm_index": self.vm_index,
            "usage_bytes": {g: self.usage_bytes.get(g, 0)
                            for g in VM_GROUPS},
            "shared_bytes": {g: self.shared_bytes.get(g, 0)
                             for g in VM_GROUPS},
            "unattributable_bytes": self.unattributable_bytes,
        }


@dataclass
class VmBreakdown:
    """The whole Fig. 2 / Fig. 4 dataset."""

    rows: List[VmRow]
    #: unclassifiable bytes not assignable to any VM (collection skew).
    unassigned_unattributable_bytes: int = 0

    def total_usage(self) -> int:
        """Host physical memory used by all guest VMs together."""
        return sum(row.total_usage() for row in self.rows)

    def total_shared(self) -> int:
        return sum(row.total_shared() for row in self.rows)

    def total_unattributable(self) -> int:
        return (
            sum(row.unattributable_bytes for row in self.rows)
            + self.unassigned_unattributable_bytes
        )

    def total_usage_bounds(self) -> Tuple[int, int]:
        """[lower, upper] for the all-VM total; contains the clean value."""
        total = self.total_usage()
        return total, total + self.total_unattributable()

    @property
    def degraded(self) -> bool:
        return self.total_unattributable() > 0

    def row(self, vm_name: str) -> VmRow:
        for row in self.rows:
            if row.vm_name == vm_name:
                return row
        raise KeyError(f"no VM {vm_name!r} in breakdown")

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of the whole Fig. 2 / Fig. 4 dataset."""
        return {
            "rows": [row.as_dict() for row in self.rows],
            "unassigned_unattributable_bytes": (
                self.unassigned_unattributable_bytes
            ),
        }

    def to_json(self) -> str:
        """Canonical JSON form (sorted keys, no whitespace churn).

        Two breakdowns render to the same string iff every
        figure-visible quantity matches — this is what the equivalence
        suite compares across analysis backends.
        """
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))


def vm_breakdown(accounting: OwnerAccounting) -> VmBreakdown:
    """Aggregate the owner-oriented cells into the Fig. 2 groups."""
    rows: Dict[str, VmRow] = {}

    def row_for(vm_name: str, vm_index: int) -> VmRow:
        if vm_name not in rows:
            rows[vm_name] = VmRow(
                vm_name=vm_name,
                vm_index=vm_index,
                usage_bytes={group: 0 for group in VM_GROUPS},
                shared_bytes={group: 0 for group in VM_GROUPS},
            )
        return rows[vm_name]

    for user in accounting.users():
        row = row_for(user.vm_name, user.vm_index)
        group = _KIND_TO_GROUP[user.kind]
        row.usage_bytes[group] += accounting.usage_of(user)
        row.shared_bytes[group] += accounting.shared_of(user)
    # A quarantined VM has no cells, only unattributable bytes; it still
    # deserves a (zero-usage, bounded) row.
    for user, num_bytes in sorted(accounting.unattributable_bytes.items()):
        row_for(user.vm_name, user.vm_index).unattributable_bytes += (
            num_bytes
        )
    ordered = sorted(rows.values(), key=lambda row: row.vm_index)
    return VmBreakdown(
        rows=ordered,
        unassigned_unattributable_bytes=(
            accounting.unassigned_unattributable_bytes
        ),
    )


@dataclass
class JavaProcessRow:
    """One Java process's bar in Fig. 3 / Fig. 5."""

    vm_name: str
    vm_index: int
    pid: int
    categories: Dict[MemoryCategory, CategoryUsage] = field(
        default_factory=dict
    )
    #: resident-but-unclassifiable bytes of this process (damaged dumps).
    unattributable_bytes: int = 0

    def category(self, category: MemoryCategory) -> CategoryUsage:
        return self.categories.get(category, CategoryUsage())

    def total_bounds(self) -> Tuple[int, int]:
        """[lower, upper] for this process's mapped bytes."""
        total = self.total_bytes()
        return total, total + self.unattributable_bytes

    def total_bytes(self) -> int:
        """Mapped bytes of the process (bar length in the figure)."""
        return sum(c.total_bytes for c in self.categories.values())

    def usage_bytes(self) -> int:
        return sum(c.usage_bytes for c in self.categories.values())

    def shared_bytes(self) -> int:
        return sum(c.shared_bytes for c in self.categories.values())

    def work_area(self) -> CategoryUsage:
        """The merged "JVM and JIT work" series used by the figures."""
        merged = CategoryUsage()
        for category in WORK_GROUP:
            cell = self.category(category)
            merged.usage_bytes += cell.usage_bytes
            merged.shared_bytes += cell.shared_bytes
        return merged

    def shared_fraction(self, category: MemoryCategory) -> float:
        cell = self.category(category)
        if cell.total_bytes == 0:
            return 0.0
        return cell.shared_bytes / cell.total_bytes

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe dict with every figure-visible quantity."""
        return {
            "vm_name": self.vm_name,
            "vm_index": self.vm_index,
            "pid": self.pid,
            "categories": {
                category.name: {
                    "usage_bytes": cell.usage_bytes,
                    "shared_bytes": cell.shared_bytes,
                }
                for category, cell in sorted(
                    self.categories.items(), key=lambda kv: kv[0].name
                )
            },
            "unattributable_bytes": self.unattributable_bytes,
        }


@dataclass
class JavaBreakdown:
    """The whole Fig. 3 / Fig. 5 dataset."""

    rows: List[JavaProcessRow]

    def total_unattributable(self) -> int:
        return sum(row.unattributable_bytes for row in self.rows)

    @property
    def degraded(self) -> bool:
        return self.total_unattributable() > 0

    def row(self, vm_name: str) -> JavaProcessRow:
        for row in self.rows:
            if row.vm_name == vm_name:
                return row
        raise KeyError(f"no Java process for VM {vm_name!r}")

    def owner_row(self) -> JavaProcessRow:
        """The Java process that owns the shared frames (smallest PID)."""
        return min(self.rows, key=lambda row: row.pid)

    def non_primary_rows(self) -> List[JavaProcessRow]:
        owner = self.owner_row()
        return [row for row in self.rows if row is not owner]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of the whole Fig. 3 / Fig. 5 dataset."""
        return {"rows": [row.as_dict() for row in self.rows]}

    def to_json(self) -> str:
        """Canonical JSON form; see :meth:`VmBreakdown.to_json`."""
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))


def java_breakdown(accounting: OwnerAccounting) -> JavaBreakdown:
    """Aggregate the owner-oriented cells into per-JVM category rows."""
    rows: List[JavaProcessRow] = []
    for user in accounting.java_users():
        row = JavaProcessRow(
            vm_name=user.vm_name, vm_index=user.vm_index, pid=user.pid,
            unattributable_bytes=accounting.unattributable_of(user),
        )
        for category in FIGURE_ORDER:
            cell = accounting.category_usage(user, category)
            row.categories[category] = CategoryUsage(
                usage_bytes=cell.usage_bytes, shared_bytes=cell.shared_bytes
            )
        rows.append(row)
    rows.sort(key=lambda row: row.vm_index)
    return JavaBreakdown(rows=rows)

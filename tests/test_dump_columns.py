"""The columnar dump against the dict dump it replaced.

``DIGESTS`` holds the SHA-256 of :func:`tests.oracle.canonical_dump`,
which lists every table's and owner map's rows by key.  The digests
were recorded for dumps collected by the per-page dict collector, on the
commit before dumps became columnar, whose dump *was* the dict form.
Listing rows by key left the ``build_host`` digests as they were (those
tables were filled in key order); the two daytrader4 digests were
recorded again when the listing changed, with the collector that still
kept each table's insertion order and passed the old digests.  The
columnar dump's dict view must hash the same: every table and owner map
row for row, every frame token and refcount, and the collection report.
The cases cover clean collection, the fault plans of
``tests/test_faults.py`` and ``tests/test_columnar_equivalence.py``, one
plan per dump-corrupting fault class (so every injector is pinned), and
a daytrader4 scenario clean and faulted.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.config import ScenarioSpec
from repro.core.dump import FrameTable, PageColumns, collect_system_dump
from repro.core.experiments import scenarios
from repro.core.validate import EXPECTED_CODES_BY_FAULT
from repro.faults import FaultPlan, FaultRates

from tests.oracle import canonical_dump
from tests.test_faults import build_host

DIGESTS = {
    "build_host":
        "82254878be694d42b07e440aa1d150b3afd7254746fb9a27b24e74e5f51fc013",
    "build_host:7":
        "44cc8fb73a9870d94df06ce52146cd6f4d470cd315c9455900e4751dbabcc296",
    "build_host:42":
        "57c6d4ac3fd40eb698a4c90b3f556afe780ff09383ebf83eaea0c47bc4844a82",
    "build_host:1337":
        "a87de9ad4a92fb1bfecc0e0f4cfe2f480eab2c44ca133e3cb82dacd218942318",
    "build_host:20130421":
        "80ac73ab5d782f5b9f686bc47467716b668a81282f4483abb70fbae3a920671d",
    "build_host(seed=23):41:0.3":
        "fe80cc5062d9e5d4334b69713129873d7b16b5f120f92c46f3a43e099f059bab",
    "build_host(seed=23):41:0.7":
        "5214172cd07ab09975286f841bbbe29a797f547d1d514a6514a2f288072d60eb",
    "build_host:5:only:truncated-guest-dump":
        "f1f7bed82949232bfeb988d5f1b885b49fb672832428afe9bc16b33d24fbaea6",
    "build_host:5:only:dropped-memslot":
        "5a3d364f455c7fcf4c0104f8578d4d86649a56b62d7239c3193ad3d65ed0d419",
    "build_host:5:only:overlapping-memslot":
        "06039fa00e17a8ed88bdbaa506c7e1ecdd802e1d09dae6937f3d000d24bfe735",
    "build_host:5:only:corrupt-guest-pte":
        "2fc6e0f7729cc8665a5b4ccf82f61bc868179a6cfa4657e2bd07114faf0cf6f3",
    "build_host:5:only:torn-host-pte":
        "363055e2177af0296871c378caf6e770ecf929af26e03124184e85ac08afb77a",
    "build_host:5:only:missing-frame-token":
        "36fbca841267c8b18358cb0d59c9225db18731e0c7157db77f910ac9ee0e319b",
    "daytrader4:0.02:1":
        "399dc03ae79b929b4ac85461d1e57eb1864cc56f817c2e2491f403eb521d4b2e",
    "daytrader4:0.02:1:1337:0.5":
        "2dcb6596ed2ef41bc296a4692627b5b0830ae9168dadc5f8747c0639e3ae1bbd",
}

SCENARIO = ScenarioSpec("daytrader4", scale=0.02, measurement_ticks=1)


def collect(name):
    """The dump the digest ``name`` was recorded for."""
    if name.startswith("daytrader4"):
        faults = name[len("daytrader4:0.02:1:"):] or None
        return scenarios.testbed_for(SCENARIO).measure(
            faults=FaultPlan.from_spec(faults) if faults else None
        ).dump
    if name.startswith("build_host(seed=23)"):
        rate = float(name.rsplit(":", 1)[1])
        return collect_system_dump(
            *build_host(seed=23),
            faults=FaultPlan(41, FaultRates.uniform(rate)),
        )
    parts = name.split(":")
    if len(parts) == 1:
        return collect_system_dump(*build_host())
    if len(parts) == 2:
        return collect_system_dump(
            *build_host(), faults=FaultPlan(int(parts[1]))
        )
    kind = next(k for k in EXPECTED_CODES_BY_FAULT if k.value == parts[3])
    return collect_system_dump(
        *build_host(), faults=FaultPlan(5, FaultRates.only(kind))
    )


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_dict_view_matches_the_dict_collector(name):
    text = json.dumps(
        canonical_dump(collect(name)), sort_keys=True,
        separators=(",", ":"),
    )
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]


def test_every_corrupting_fault_class_is_pinned():
    pinned = {name.rsplit(":", 1)[1] for name in DIGESTS if ":only:" in name}
    assert pinned == {kind.value for kind in EXPECTED_CODES_BY_FAULT}


def _containers(value, seen=None):
    """Every dict and list reachable from ``value``'s attributes."""
    seen = set() if seen is None else seen
    if id(value) in seen or isinstance(value, (str, bytes, int, float)):
        return
    seen.add(id(value))
    if isinstance(value, (dict, list, tuple)):
        if not isinstance(value, tuple):
            yield value
        items = value.values() if isinstance(value, dict) else value
        for item in items:
            yield from _containers(item, seen)
        return
    names = getattr(value, "__dict__", {}).keys() | set(
        getattr(type(value), "__slots__", ())
    )
    for name in names:
        yield from _containers(getattr(value, name, None), seen)


def test_no_per_page_field_is_a_dict_or_a_list():
    dump = collect("daytrader4:0.02:1")
    columns = [*dump.host.page_tables.values()]
    for guest in dump.guests:
        columns.append(guest.gfn_owners)
        columns.extend(process.page_table for process in guest.processes)
    for table in columns:
        assert isinstance(table, PageColumns)
        assert isinstance(table.keys, np.ndarray)
        assert isinstance(table.values, np.ndarray)
    assert isinstance(dump.frames, FrameTable)
    for name in ("fids", "tokens", "refcounts", "has_token"):
        assert isinstance(getattr(dump.frames, name), np.ndarray), name
    pages = len(dump.frames)
    assert pages > 10_000
    # Whatever dicts and lists remain (VMA and memslot records, owner
    # records, the collection report) are per record, not per page.
    assert max(len(found) for found in _containers(dump)) < pages // 20

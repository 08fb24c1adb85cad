"""Property-based tests for the accounting layer.

Hypothesis generates random little worlds — guests, processes, pages,
sharing patterns — and checks the policies' conservation laws on all of
them:

* owner-oriented usage sums exactly to the backed frames;
* usage + shared sums exactly to the mapped guest pages;
* PSS sums exactly to the backed frames;
* exactly one owner per frame, and a Java owner whenever any Java
  process maps the frame.
"""

from hypothesis import given, settings, strategies as st

from repro.core.accounting import (
    UserKind,
    distribution_oriented_accounting,
    owner_oriented_accounting,
)
from repro.core.dump import collect_system_dump
from repro.guestos.kernel import GuestKernel
from repro.hypervisor.kvm import KvmHost
from repro.units import MiB

from tests.oracle import build_frame_usage

PAGE = 4096


@st.composite
def worlds(draw):
    """Spec for a small random multi-guest world."""
    n_guests = draw(st.integers(1, 3))
    guests = []
    for guest_index in range(n_guests):
        n_processes = draw(st.integers(1, 3))
        processes = []
        for process_index in range(n_processes):
            is_java = draw(st.booleans())
            # Each page is (slot, token): same (slot, token) across
            # processes/guests => mergeable content.
            pages = draw(
                st.lists(
                    st.tuples(st.integers(0, 5), st.integers(1, 4)),
                    min_size=0,
                    max_size=6,
                    unique_by=lambda page: page[0],
                )
            )
            processes.append((is_java, pages))
        kernel_pages = draw(st.integers(0, 4))
        guests.append((processes, kernel_pages))
    return guests


def build_world(spec):
    host = KvmHost(256 * MiB, seed=17)
    kernels = {}
    mapped_pages = 0
    for guest_index, (processes, kernel_pages) in enumerate(spec):
        name = f"vm{guest_index}"
        vm = host.create_guest(name, 4 * MiB)
        kernel = GuestKernel(vm, host.rng.derive("g", name))
        kernels[name] = kernel
        from repro.guestos.kernel import OwnerKind, PageOwner

        for page_index in range(kernel_pages):
            gfn = kernel.alloc_gfn(PageOwner(OwnerKind.KERNEL, tag="slab"))
            vm.write_gfn(gfn, 1000 + guest_index * 100 + page_index)
            mapped_pages += 0  # kernel pages are not process mappings
        for process_index, (is_java, pages) in enumerate(processes):
            process = kernel.spawn(
                "java" if is_java else f"daemon{process_index}"
            )
            if not pages:
                continue
            tag = "java:heap" if is_java else "daemon:heap"
            vma = process.mmap_anon(8 * PAGE, tag)
            for slot, token in pages:
                process.write_token(vma, slot, token)
                mapped_pages += 1
    host.ksm.run_until_converged(max_passes=8)
    dump = collect_system_dump(host, kernels)
    return host, dump, mapped_pages


class TestConservation:
    @given(spec=worlds())
    @settings(max_examples=40, deadline=None)
    def test_owner_usage_equals_backed_frames(self, spec):
        _host, dump, _mapped = build_world(spec)
        usage = build_frame_usage(dump)
        accounting = owner_oriented_accounting(dump)
        assert accounting.total_usage() == len(usage) * PAGE

    @given(spec=worlds())
    @settings(max_examples=40, deadline=None)
    def test_usage_plus_shared_equals_mappings(self, spec):
        _host, dump, _mapped = build_world(spec)
        usage = build_frame_usage(dump)
        accounting = owner_oriented_accounting(dump)
        total_mappings = sum(len(m) for m in usage.values())
        total_accounted = sum(
            accounting.total_of(user) for user in accounting.users()
        )
        assert total_accounted == total_mappings * PAGE

    @given(spec=worlds())
    @settings(max_examples=40, deadline=None)
    def test_pss_equals_backed_frames(self, spec):
        _host, dump, _mapped = build_world(spec)
        usage = build_frame_usage(dump)
        pss = distribution_oriented_accounting(dump)
        assert abs(pss.total_pss() - len(usage) * PAGE) < 1e-6

    @given(spec=worlds())
    @settings(max_examples=40, deadline=None)
    def test_java_always_preferred_owner(self, spec):
        """Whenever a frame has any Java mapper, a Java process owns it —
        so no Java process is ever charged for a frame a non-Java user
        could have carried, matching the paper's owner rule."""
        _host, dump, _mapped = build_world(spec)
        usage = build_frame_usage(dump)
        accounting = owner_oriented_accounting(dump)
        # Reconstruct ownership from the result: the shared tally of a
        # kernel/daemon user must cover every frame a Java process also
        # maps.
        for fid, mappings in usage.items():
            kinds = {mapping.user.kind for mapping in mappings}
            if UserKind.JAVA in kinds and len(mappings) > 1:
                # At least one Java mapping exists: owner must be Java,
                # so every non-Java user of this frame accrues shared.
                non_java = [
                    m for m in mappings if m.user.kind is not UserKind.JAVA
                ]
                for mapping in non_java:
                    assert accounting.shared_of(mapping.user) >= PAGE

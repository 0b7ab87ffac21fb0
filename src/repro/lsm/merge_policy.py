"""Merge policies.

"The frequency of merges and the number of components deemed to be
combined is determined by the merge policy" (Appendix A).  Policies are
consulted after every flush; they pick a *contiguous* (in recency) run
of components to merge, or nothing.  The policies used in the paper's
evaluation are implemented, plus AsterixDB's default prefix policy:

* :class:`NoMergePolicy` -- never merge (used in Fig. 8 to force the
  maximum number of components);
* :class:`ConstantMergePolicy` -- cap the number of disk components at
  ``max_components``, merging all of them when the cap is exceeded
  (the paper's "Constant" policy, Figs. 6 and 9);
* :class:`StackMergePolicy` -- merge the newest ``stack_size`` components
  whenever that many have accumulated (a simple tiered scheme).
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Sequence

from repro.errors import ConfigurationError
from repro.lsm.component import DiskComponent

__all__ = [
    "MergePolicy",
    "NoMergePolicy",
    "ConstantMergePolicy",
    "StackMergePolicy",
    "PrefixMergePolicy",
]


class MergePolicy(ABC):
    """Decides which disk components to merge after a flush.

    ``select_merge`` is the pure decision function subclasses implement;
    it assumes serial calls.  Concurrent schedulers must instead go
    through :meth:`acquire_merge` / :meth:`release_merge`, which track
    the components of in-flight merges so no component is ever selected
    by two overlapping merges.
    """

    def __init__(self) -> None:
        self._in_flight: set[int] = set()  # uids of components mid-merge
        self._slot_lock = threading.Lock()

    @abstractmethod
    def select_merge(
        self, components: Sequence[DiskComponent]
    ) -> list[DiskComponent] | None:
        """Pick a contiguous run to merge from ``components`` (ordered
        newest first), or ``None`` when no merge is warranted."""

    def acquire_merge(
        self, components: Sequence[DiskComponent]
    ) -> list[DiskComponent] | None:
        """Concurrency-safe selection: consult :meth:`select_merge` on
        the newest-first prefix that stops at the first component already
        claimed by an in-flight merge (a policy may only pick contiguous
        runs, so nothing past a busy component is eligible), and claim
        the selection.  Callers must pair every non-``None`` return with
        exactly one :meth:`release_merge`.
        """
        with self._slot_lock:
            eligible: list[DiskComponent] = []
            for component in components:  # newest first
                if component.uid in self._in_flight:
                    break
                eligible.append(component)
            selected = self.select_merge(eligible)
            if selected:
                self._in_flight.update(c.uid for c in selected)
                return selected
            return None

    def release_merge(self, components: Sequence[DiskComponent]) -> None:
        """Return the slots claimed by :meth:`acquire_merge` (called when
        the merge completes or fails)."""
        with self._slot_lock:
            for component in components:
                self._in_flight.discard(component.uid)

    @property
    def in_flight_count(self) -> int:
        """Components currently claimed by unfinished merges."""
        with self._slot_lock:
            return len(self._in_flight)


class NoMergePolicy(MergePolicy):
    """Never merges; the component count grows without bound."""

    def select_merge(
        self, components: Sequence[DiskComponent]
    ) -> list[DiskComponent] | None:
        return None


class ConstantMergePolicy(MergePolicy):
    """Keeps at most ``max_components`` disk components.

    When a flush pushes the count past the cap, all components are
    merged into one -- mirroring AsterixDB's constant merge policy the
    paper uses to control the number of components per partition.
    """

    def __init__(self, max_components: int) -> None:
        super().__init__()
        if max_components < 1:
            raise ConfigurationError(
                f"max_components must be >= 1, got {max_components}"
            )
        self.max_components = max_components

    def select_merge(
        self, components: Sequence[DiskComponent]
    ) -> list[DiskComponent] | None:
        if len(components) > self.max_components:
            return list(components)
        return None


class PrefixMergePolicy(MergePolicy):
    """AsterixDB's default size-aware policy.

    Looks at the (newest-first) component sequence and merges the
    longest run of *small* components -- each no larger than
    ``max_mergable_pages`` -- once more than ``max_tolerance_count`` of
    them have accumulated.  Large components (typically the products of
    earlier merges) are left alone, so write amplification stays
    bounded while the component count cannot grow without limit.
    """

    def __init__(
        self, max_mergable_pages: int, max_tolerance_count: int
    ) -> None:
        super().__init__()
        if max_mergable_pages < 1:
            raise ConfigurationError(
                f"max_mergable_pages must be >= 1, got {max_mergable_pages}"
            )
        if max_tolerance_count < 2:
            raise ConfigurationError(
                f"max_tolerance_count must be >= 2, got {max_tolerance_count}"
            )
        self.max_mergable_pages = max_mergable_pages
        self.max_tolerance_count = max_tolerance_count

    def select_merge(
        self, components: Sequence[DiskComponent]
    ) -> list[DiskComponent] | None:
        run: list[DiskComponent] = []
        for component in components:  # newest first
            if component.btree.num_pages <= self.max_mergable_pages:
                run.append(component)
            else:
                break  # a large component ends the mergeable run
        if len(run) > self.max_tolerance_count:
            return run
        return None


class StackMergePolicy(MergePolicy):
    """Merges the newest ``stack_size`` components once they accumulate.

    A minimal tiered policy: useful in tests and ablations to exercise
    *partial* merges, where anti-matter must be carried forward because
    older components remain outside the merge.
    """

    def __init__(self, stack_size: int) -> None:
        super().__init__()
        if stack_size < 2:
            raise ConfigurationError(
                f"stack_size must be >= 2, got {stack_size}"
            )
        self.stack_size = stack_size

    def select_merge(
        self, components: Sequence[DiskComponent]
    ) -> list[DiskComponent] | None:
        if len(components) >= self.stack_size:
            return list(components[: self.stack_size])
        return None

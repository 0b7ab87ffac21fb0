"""Model-based stateful testing of the LSM tree.

Hypothesis drives random interleavings of upserts, deletes, flushes and
merges against an LSMTree while a plain dict tracks the expected live
state; after every step the tree must agree with the model on point
lookups, scans and counts.  This is the strongest correctness net over
the reconciliation machinery (newest-wins, anti-matter, partial merges).
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.lsm.merge_policy import NoMergePolicy
from repro.lsm.storage import SimulatedDisk
from repro.lsm.tree import LSMTree

KEYS = st.integers(0, 40)  # small space -> frequent collisions


class LSMTreeMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.tree = LSMTree(
            "model",
            SimulatedDisk(),
            merge_policy=NoMergePolicy(),
        )
        self.model: dict[int, int] = {}
        self.writes = 0

    @rule(key=KEYS, value=st.integers())
    def upsert(self, key, value):
        self.tree.upsert(key, value)
        self.model[key] = value

    @rule(key=KEYS)
    def delete(self, key):
        self.tree.delete(key)
        self.model.pop(key, None)

    @rule()
    def flush(self):
        self.tree.flush()

    @rule(data=st.data())
    def merge_some(self, data):
        components = self.tree.components
        if len(components) < 2:
            return
        # Merge a random contiguous run (exercises partial merges and
        # their anti-matter retention).
        start = data.draw(st.integers(0, len(components) - 2))
        end = data.draw(st.integers(start + 1, len(components) - 1))
        self.tree.merge(components[start : end + 1])

    @rule(key=KEYS)
    def check_point_lookup(self, key):
        assert self.tree.get(key) == self.model.get(key)

    @rule(a=KEYS, b=KEYS)
    def check_range_scan(self, a, b):
        lo, hi = min(a, b), max(a, b)
        got = [(r.key, r.value) for r in self.tree.scan(lo, hi)]
        expected = sorted(
            (k, v) for k, v in self.model.items() if lo <= k <= hi
        )
        assert got == expected

    @invariant()
    def count_matches_model(self):
        if getattr(self, "tree", None) is None:
            return
        assert self.tree.count_range() == len(self.model)


TestLSMTreeStateful = LSMTreeMachine.TestCase
TestLSMTreeStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)

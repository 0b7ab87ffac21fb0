"""A component event is one catalog transition (§3.5: a merge's new
synopses replace the inputs' statistics "altogether").

The invariant is checked after *every* frame the master handles, not
only on the quiescent image the convergence checks compare: no catalog
state may hold a component beside the merge output that replaced it,
and the full-domain equi-width estimate (exact for a full-domain
range) may never exceed the records handed to the cluster so far.
Before merges shipped as one ``stats.apply`` frame, the merged entry
landed one frame ahead of its inputs' retraction and every merge read
about twice the records present in between.

The set-up is a small-component probe: equi-width 64, memtable 50,
``PrefixMergePolicy(32, 4)`` and 2 000 inserts into one partition,
run on a perfect wire, on faultcheck's lossy wire (drops, duplicates,
reorders, delays and an outage window) and under racecheck's threads.
"""

import pytest

from repro.cluster.cluster import LSMCluster
from repro.cluster.faults import FaultPlan, LinkFaults
from repro.cluster.master import ClusterController
from repro.core.config import StatisticsConfig
from repro.lsm.component import DiskComponent
from repro.lsm.dataset import secondary_index_name
from repro.lsm.merge_policy import PrefixMergePolicy
from repro.obs.registry import MetricsRegistry, use_registry
from repro.synopses.base import SynopsisType
from repro.types import Domain
from repro.util.retry import RetryPolicy

DATASET = "probe"
PRIMARY = secondary_index_name(DATASET, "primary")
DOMAIN = Domain(0, 2**20 - 1)
RECORDS = 2_000

PERTURBATIONS = {
    "perfect": lambda: {},
    # A fresh plan per run: the plan carries its seeded RNG.
    "lossy": lambda: {
        "fault_plan": FaultPlan(
            seed=3,
            default=LinkFaults(drop=0.10, duplicate=0.10, reorder=0.10, delay=0.05),
            unavailable={"cc": [(40, 80)]},
        )
    },
    "threads": lambda: {"scheduler": "threads"},
}


class _Probe:
    """Every disk component ever built (uid -> component) and every
    violation seen after a master-handled frame."""

    def __init__(self) -> None:
        self.components: dict[int, DiskComponent] = {}
        self.written = 0
        self.frames = 0
        self.violations: list[str] = []

    def check(self, master: ClusterController) -> None:
        self.frames += 1
        catalog = master.catalog
        for index_name in catalog.index_names():
            held: dict[tuple[str, int], list] = {}
            for entry in catalog.entries_for(index_name):
                component = self.components[entry.component_uid]
                held.setdefault((entry.node_id, entry.partition_id), []).append(
                    component.component_id
                )
            for ids in held.values():
                for outer in ids:
                    for inner in ids:
                        if outer is not inner and (
                            outer.min_seq <= inner.min_seq
                            and inner.max_seq <= outer.max_seq
                        ):
                            self.violations.append(
                                f"frame {self.frames}: {index_name} holds {outer} "
                                f"beside its merge input {inner}"
                            )
        estimate = master.estimate(PRIMARY, DOMAIN.lo, DOMAIN.hi)
        if estimate > self.written:
            self.violations.append(
                f"frame {self.frames}: estimate {estimate} > {self.written} written"
            )


@pytest.fixture
def probe(monkeypatch):
    probe = _Probe()
    build = DiskComponent.__init__
    handle = ClusterController._on_message

    def built(component, *args, **kwargs):
        build(component, *args, **kwargs)
        probe.components[component.uid] = component

    def handled(master, source, frame):
        handle(master, source, frame)
        probe.check(master)

    monkeypatch.setattr(DiskComponent, "__init__", built)
    monkeypatch.setattr(ClusterController, "_on_message", handled)
    return probe


@pytest.mark.parametrize("perturbation", sorted(PERTURBATIONS))
def test_no_frame_shows_a_merge_beside_its_inputs(probe, perturbation):
    with use_registry(MetricsRegistry()) as registry:
        cluster = LSMCluster(
            num_nodes=1,
            partitions_per_node=1,
            stats_config=StatisticsConfig(SynopsisType.EQUI_WIDTH, budget=64),
            retry_policy=RetryPolicy.immediate(max_attempts=3),
            **PERTURBATIONS[perturbation](),
        )
        _ingest(cluster, probe)
    assert probe.violations == []
    # Not vacuous: merges happened, the perturbation bit, and the
    # converged catalog counts every record exactly once.
    assert cluster.nodes[0].dataset(DATASET, 0).primary.merge_count >= 5
    assert probe.frames >= 40
    assert cluster.master.estimate(PRIMARY, DOMAIN.lo, DOMAIN.hi) == RECORDS
    counters = registry.snapshot()["counters"]
    if perturbation == "lossy":
        assert all(
            counters[f"network.{fault}"] > 0
            for fault in ("dropped", "duplicated", "reordered", "delayed")
        )
    if perturbation == "threads":
        assert counters["scheduler.tasks.completed"] >= 40


def _ingest(cluster, probe):
    try:
        cluster.create_dataset(
            DATASET,
            primary_key="id",
            primary_domain=DOMAIN,
            memtable_capacity=50,
            merge_policy_factory=lambda: PrefixMergePolicy(32, 4),
        )
        for number in range(RECORDS):
            probe.written += 1  # before the call: an inline flush runs inside it
            cluster.insert(DATASET, {"id": number * 523 % DOMAIN.hi})
        cluster.flush_all(DATASET)
        cluster.drain_maintenance()
        cluster.recover_statistics()
    finally:
        cluster.shutdown()

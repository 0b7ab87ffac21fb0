"""The generators are pure functions of the seed."""

from __future__ import annotations

from e2ebench import workloads


def _everything(seed: int) -> tuple:
    targets = [("orders", "value_idx", workloads.VALUE_DOMAIN),
               ("orders", "cust_idx", workloads.CUST_DOMAIN)]
    return (
        workloads.documents(seed, 500),
        workloads.documents(seed, 100, first_ordinal=500, stream="payments"),
        workloads.churn_ops(seed, 2_000, min_age=128),
        workloads.estimate_schedule(seed, 300, targets, "fits"),
    )


def test_one_seed_gives_identical_inputs():
    assert _everything(7) == _everything(7)


def test_two_seeds_give_different_inputs():
    for first, second in zip(_everything(7), _everything(8)):
        assert first != second


def test_unseeded_inputs_are_fixed():
    assert workloads.range_queries(200) == workloads.range_queries(200)
    assert workloads.due_times(3000.0, 1.0, 32) == [i * 32 / 3000.0 for i in range(93)]
    lo, hi = workloads.VALUE_DOMAIN
    assert all(lo <= a <= b <= hi for a, b in workloads.range_queries(200))


def test_documents_are_order_shaped():
    docs = workloads.documents(3, 2_000)
    assert len({doc["id"] for doc in docs}) == len(docs)
    stamps = [doc["ts"] for doc in docs]
    assert stamps == sorted(stamps)
    for name, (lo, hi) in (
        ("id", workloads.PK_DOMAIN),
        ("cust", workloads.CUST_DOMAIN),
        ("value", workloads.VALUE_DOMAIN),
        ("ts", workloads.TS_DOMAIN),
        ("status", workloads.STATUS_DOMAIN),
    ):
        assert all(lo <= doc[name] <= hi for doc in docs)
    # Zipf foreign key: far fewer distinct customers than orders.
    assert len({doc["cust"] for doc in docs}) < len(docs) // 2


def test_churn_model_is_what_the_ops_leave():
    ops, model = workloads.churn_ops(11, 3_000, min_age=200)
    replayed: dict[int, dict] = {}
    age: dict[int, int] = {}
    for position, (kind, doc) in enumerate(ops):
        if kind == "insert":
            assert doc["id"] not in replayed
        else:
            # Never fails, and never names a record young enough to still
            # sit in a memtable.
            assert doc["id"] in replayed
            assert position - age[doc["id"]] >= 200
        if kind == "delete":
            del replayed[doc["id"]]
        else:
            replayed[doc["id"]] = doc
            age[doc["id"]] = position
    assert replayed == model
    kinds = [kind for kind, _ in ops]
    assert 0.10 < kinds.count("update") / len(ops) < 0.20
    assert 0.10 < kinds.count("delete") / len(ops) < 0.20


def test_every_generator_records_its_rationale():
    for name in ("documents", "churn_ops", "range_queries", "estimate_schedule", "due_times"):
        assert len(workloads.RATIONALE[name]) > 20
        assert "\n" not in workloads.RATIONALE[name]

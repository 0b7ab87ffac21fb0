"""The four workloads; ``SCENARIOS`` maps a workload name to its module."""

from e2ebench.scenarios import bulkload, estimate_mix, feed_churn, htap_openloop

SCENARIOS = {
    "bulkload": bulkload,
    "feed_churn": feed_churn,
    "estimate_mix": estimate_mix,
    "htap_openloop": htap_openloop,
}

"""Performance metrics: interactivity (pQoS), resource utilisation, delay CDFs.

These are the two performance measures analysed throughout the paper's
Section 4 ("the percentage of clients with QoS ... denoted as pQoS, and the
server resource utilization ... denoted as R") plus the delay CDF of Figure 4
and the multi-run aggregation statistics.
"""

from repro.metrics.cdf import EmpiricalCDF, delay_cdf, merge_cdfs
from repro.metrics.qos import QoSReport, client_delays, pqos, qos_report
from repro.metrics.recovery import RecoveryReport, recovery_report
from repro.metrics.resources import ResourceReport, resource_report, resource_utilization
from repro.metrics.summary import AggregateStat, RunningStats, aggregate

__all__ = [
    "EmpiricalCDF",
    "delay_cdf",
    "merge_cdfs",
    "QoSReport",
    "client_delays",
    "pqos",
    "qos_report",
    "RecoveryReport",
    "recovery_report",
    "ResourceReport",
    "resource_report",
    "resource_utilization",
    "AggregateStat",
    "RunningStats",
    "aggregate",
]

"""Shared pytest configuration.

Prints one PASS/FAIL line per acceptance criterion at the end of the run,
so the terminal summary doubles as the acceptance report.
"""

import re

CRITERIA = {
    1: "uniform-cube small-ball rates stay under 2*sqrt(3)*alpha/||x||_2",
    2: "unit-sphere rates at d=2 match the arcsine law and its linear bound",
    3: "spherical cap probability <= alpha*sqrt(d), checked analytically",
    4: "beta-function margin nonnegative for d up to 10^4",
    5: "far-pair collision rates stay under threshold/c in every grid cell",
    6: "sign family degenerates on a two-coordinate point; cube family does not",
    7: "every planted neighbor is returned: recall and precision exactly 1.0",
    8: "sliding-window concentration of projection sums obeys the variance bound",
    9: "storage counts, round-trip queries, and replayed CSVs are exact",
    10: "mean candidate work per dataset doubling grows by under 1.8x",
    11: "pairs on bucket edges are found in doubles: within-1 answers are exact",
}

_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = _PATTERN.search(getattr(report, "nodeid", ""))
            if match is None:
                continue
            number = int(match.group(1))
            if status == "passed" and report.when != "call":
                continue
            results.setdefault(number, status)
            if status != "passed":
                results[number] = status
    if not results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(results):
        label = "PASS" if results[number] == "passed" else "FAIL"
        terminalreporter.write_line(
            f"{label} criterion {number:2d}: {CRITERIA.get(number, '')}"
        )

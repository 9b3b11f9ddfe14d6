"""The paired-median estimator behind the trajectory benchmark's noise-
bound gates (``benchmarks/trajectory.py --forensics`` / ``--control``)."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "trajectory.py"
_SPEC = importlib.util.spec_from_file_location("trajectory", _PATH)
trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trajectory)


def test_interleave_alternates_which_arm_runs_first():
    calls = []

    def arm(name):
        def run():
            calls.append(name)
            return len(calls)

        return run

    first, second = trajectory.interleave(arm("a"), arm("b"), 4)
    assert calls == ["a", "b", "b", "a", "a", "b", "b", "a"]
    assert first == [1, 4, 5, 8] and second == [2, 3, 6, 7]


def _noisy_pairs(slowdown_pct, pairs=200, seed=7):
    """Pairs of wall times on a drifting, spiky host: a shared per-pair
    machine factor, ±3% per-run jitter and a one-in-ten ±40% outlier;
    the armed arm is slower by ``slowdown_pct`` of its own time."""
    rng = random.Random(seed)

    def jitter():
        if rng.random() < 0.1:
            return rng.choice((0.6, 1.4))
        return 1 + rng.gauss(0, 0.03)

    base, armed = [], []
    for _ in range(pairs):
        machine = 0.05 * rng.lognormvariate(0, 0.3)
        base.append(machine * jitter())
        armed.append(machine * jitter() / (1 - slowdown_pct / 100))
    return base, armed


@pytest.mark.parametrize("budget", [1.0, 15.0])
def test_paired_median_separates_a_budget_sized_slowdown(budget):
    """No slowdown reads well inside the budget; a slowdown of the
    budget's size reads at the budget; one of twice the budget fails."""
    assert trajectory.paired_overhead_pct(*_noisy_pairs(0.0)) < budget / 2
    at_budget = trajectory.paired_overhead_pct(*_noisy_pairs(budget))
    assert at_budget == pytest.approx(budget, abs=0.6)
    assert trajectory.paired_overhead_pct(*_noisy_pairs(2 * budget)) > budget

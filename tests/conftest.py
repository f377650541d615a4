"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from ropebound import distances, measure


@pytest.fixture
def searches(monkeypatch) -> list:
    """Record every certified search measure runs from here on, as
    (count, searched, held): its component count, the components whose
    self run pairs it enumerates or queries, and those that hold the self
    candidates, the run pairs of a self pass that reach the segment
    kernel."""
    found = []
    certified_min = measure._certified_min
    run_pairs, near_min = distances._run_pairs, distances._near_min

    def search(curves, *args, **kwargs):
        found.append((len(curves), set(), set()))
        return certified_min(curves, *args, **kwargs)

    def pairs(soup, at, radius, inter, intra, arc_windows, sizes=None):
        if intra and not inter:
            runs = soup.runs.first if at is None else soup.runs.first.take(at)
            found[-1][1].update(soup.labels.take(runs).tolist())
        return run_pairs(soup, at, radius, inter, intra, arc_windows, sizes)

    def near(soup, runs, ra, rb, radius, inter, intra, arc_windows):
        if intra and not inter:
            held = soup.labels.take(runs.first.take(np.concatenate((ra, rb))))
            found[-1][2].update(held.tolist())
        return near_min(soup, runs, ra, rb, radius, inter, intra, arc_windows)

    monkeypatch.setattr(measure, "_certified_min", search)
    monkeypatch.setattr(distances, "_run_pairs", pairs)
    monkeypatch.setattr(distances, "_near_min", near)
    return found

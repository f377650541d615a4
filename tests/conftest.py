"""Fixtures and helpers shared by the test modules."""

from dataclasses import replace

import numpy as np
import pytest

from ropebound import distances, measure
from ropebound.construct import donut_double


def mirrored_double(spec, n_points):
    """The donut double of `spec` with its second copy reflected through
    the xz plane, which holds that copy's core circle: the copy stays
    threaded, with the opposite chirality to the first, so the link is no
    torus link.  No construction builds it, but a file can hold it, so
    measure and linking must handle it, and verify must reject it."""
    link = donut_double(spec, n_points=n_points, check=False)
    q = link.n_components // 2
    flip = np.diag([1.0, -1.0, 1.0])
    return replace(link, components=link.components[:q] + [
        c.transformed(flip) for c in link.components[q:]])


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

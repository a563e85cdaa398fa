import numpy as np
import pytest

from nchodge.errors import GridTooCoarse, GridTooLarge
from nchodge.morse import MAX_N_V, MAX_SAMPLES, _brackets, builtin_chart, morse_scan


def test_cosine_chart_two_families():
    rep = morse_scan(builtin_chart("cos-h"))
    fams = rep["families"]
    assert len(fams) == 2
    assert sorted(f["index"] for f in fams) == [0, 1]
    # maximum at h = 0 (index 1), minimum at h = 1/2 (index 0)
    cell = 1.0 / rep["n_h"]
    by_index = {f["index"]: f for f in fams}
    assert min(by_index[1]["h_mean"], 1.0 - by_index[1]["h_mean"]) <= cell
    assert abs(by_index[0]["h_mean"] - 0.5) <= cell
    assert all(f["count"] == rep["n_v"] for f in fams)
    assert not rep["degenerate_events"]
    assert not rep["flat_slices"]
    assert rep["almost_morse"] and rep["passed"]


def test_cubic_chart_birth_death():
    """h^3/3 - v*h: two Morse branches for v > 0 merging at the origin."""
    rep = morse_scan(builtin_chart("cubic-bd"))
    events = rep["degenerate_events"]
    assert len(events) == 1
    cell = (rep["h_range"][1] - rep["h_range"][0]) / rep["n_h"]
    assert abs(events[0]["h"]) <= cell
    assert events[0]["v"] == 0.0
    assert events[0]["birth_death_ok"]
    assert events[0]["jacobian_rank"] >= 1
    assert len(rep["families"]) == 2
    assert sorted(f["index"] for f in rep["families"]) == [0, 1]
    assert rep["almost_morse"] and rep["passed"]


def test_constant_chart_not_almost_morse():
    rep = morse_scan(builtin_chart("constant"))
    assert len(rep["flat_slices"]) == rep["n_v"]
    assert not rep["families"]
    assert not rep["passed"]


def test_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        morse_scan(builtin_chart("cos-h"), n_h=8)
    with pytest.raises(GridTooCoarse):
        morse_scan(builtin_chart("cos-h"), n_v=1)


def test_grid_too_large():
    # refused before any slice is scanned: n_v slices run one at a time, and
    # n_h * n_v bounds the samples
    with pytest.raises(GridTooLarge) as info:
        morse_scan(builtin_chart("cos-h"), n_v=MAX_N_V + 1)
    assert info.value.context == {"n_v": MAX_N_V + 1, "cap": MAX_N_V}
    with pytest.raises(GridTooLarge) as info:
        morse_scan(builtin_chart("cos-h"), n_h=MAX_SAMPLES // 2 + 1, n_v=2)
    assert info.value.context["cap"] == MAX_SAMPLES


def test_unknown_chart():
    with pytest.raises(ValueError):
        builtin_chart("saddle")


def _loop_brackets(g1, g2, periodic):
    """The per-interval loop _brackets replaces, kept as its reference."""
    n = len(g1)
    out = []
    for i in range(n if periodic else n - 1):
        j = (i + 1) % n
        if (g1[i] < 0) != (g1[j] < 0) or g1[i] == 0.0:
            out.append((i, True))
        elif (g2[i] < 0) != (g2[j] < 0):
            out.append((i, False))
    return out


@pytest.mark.parametrize("periodic", [False, True])
def test_brackets_match_the_loop(periodic):
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        # small integers, so that zeros (both signs) and ties occur
        g1, g2 = (rng.integers(-2, 3, n) * rng.choice([1.0, -0.0], n) for _ in range(2))
        assert list(_brackets(g1, g2, periodic)) == _loop_brackets(g1, g2, periodic)

"""`sample_triples` and `sample_quadruples` against the row-sorting draw
they replace: same integers, each row sorted by np.sort, bit for bit."""

import numpy as np
import pytest

from needlekit import curvature as cv
from needlekit.errors import BadParameter


def _sorted_triples(grid, count, rng, include_extremes):
    n = len(grid)
    idx = np.sort(rng.integers(0, n, size=(count, 3)), axis=1)
    idx = idx[(idx[:, 0] < idx[:, 1]) & (idx[:, 1] < idx[:, 2])]
    triples = np.stack([grid[idx[:, 0]], grid[idx[:, 2]],
                        (idx[:, 1] - idx[:, 0]) / (idx[:, 2] - idx[:, 0])], axis=1)
    if include_extremes:
        j = n - 1 if (n - 1) % 2 == 0 else n - 2
        extra = [(grid[0], grid[j], 0.5)] if j > 0 else []
        for k in (n // 8, n // 4, 3 * n // 8):
            if 0 < k < j - k:
                extra.append((grid[k], grid[j - k], 0.5))
        triples = np.concatenate([np.array(extra).reshape(-1, 3), triples], axis=0)
    return triples


def _sorted_quadruples(grid, count, rng):
    idx = np.sort(rng.integers(0, len(grid), size=(count, 4)), axis=1)
    return grid[idx[(idx[:, 0] < idx[:, 1]) & (idx[:, 2] < idx[:, 3])]]


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [3, 4, 5, 2000, 2001])
@pytest.mark.parametrize("count", [0, 1, 20_000])
def test_samplers_match_the_row_sort(n, count, seed):
    grid = np.sort(np.random.default_rng(n).random(n)) if seed % 2 else np.linspace(0.0, 1.0, n)
    for extremes in (True, False):
        got = cv.sample_triples(grid, count, np.random.default_rng(seed), include_extremes=extremes)
        assert _same_bits(got, _sorted_triples(grid, count, np.random.default_rng(seed), extremes))
    got = cv.sample_quadruples(grid, count, np.random.default_rng(seed))
    assert _same_bits(got, _sorted_quadruples(grid, count, np.random.default_rng(seed)))


@pytest.mark.parametrize("count", [-1, 2.5, 3.0, "3", None])
@pytest.mark.parametrize("sampler", [cv.sample_triples, cv.sample_quadruples])
def test_bad_count_is_rejected(sampler, count):
    # unchecked, numpy's own ValueError or TypeError escaped
    with pytest.raises(BadParameter, match="count"):
        sampler(np.linspace(0.0, 1.0, 9), count)

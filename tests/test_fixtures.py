"""Tests for the margin repair of the bundled cohort reconstruction."""

from itertools import product

import numpy as np
import pytest

from riskdiff.dataset import describe
from riskdiff.fixtures import AGE_SPLIT, CELL_COUNTS, _joint_counts, \
    cardia_cohort


def test_joint_counts_meet_every_margin():
    keys = set(product((1, 0), repeat=3))
    for m in range(13):
        for margins in product(range(m + 1), repeat=3):
            counts = _joint_counts(m, *margins)
            assert set(counts) == keys
            assert min(counts.values()) >= 0
            assert sum(counts.values()) == m
            for axis, want in enumerate(margins):
                assert sum(v for k, v in counts.items() if k[axis]) == want


def _reference_joint_counts(m, n_a, n_f, n_r):
    """The earlier repair: each pair is visited twice, with a moved counter,
    an early break and a guard on empty sources."""
    keys = list(product((1, 0), repeat=3))
    if m == 0:
        return {k: 0 for k in keys}
    probs = ((n_a / m, 1 - n_a / m), (n_f / m, 1 - n_f / m),
             (n_r / m, 1 - n_r / m))
    expected = {
        k: m * probs[0][1 - k[0]] * probs[1][1 - k[1]] * probs[2][1 - k[2]]
        for k in keys
    }
    counts = {k: int(np.floor(expected[k])) for k in keys}
    order = sorted(keys, key=lambda k: expected[k] - counts[k], reverse=True)
    for k in order[: m - sum(counts.values())]:
        counts[k] += 1

    target = (n_a, n_f, n_r)

    def margins():
        return tuple(sum(v for k, v in counts.items() if k[axis])
                     for axis in range(3))

    for axis in range(3):
        excess = margins()[axis] - target[axis]
        moved = 0
        for k in sorted(keys, key=lambda k: -counts[k]):
            if moved == abs(excess):
                break
            src = k if (k[axis] == 1) == (excess > 0) else tuple(
                1 - v if i == axis else v for i, v in enumerate(k))
            dst = tuple(1 - v if i == axis else v for i, v in enumerate(src))
            if counts[src] > 0:
                take = min(counts[src], abs(excess) - moved)
                counts[src] -= take
                counts[dst] += take
                moved += take
    assert margins() == target, "margin repair failed"
    return counts


#: The published counts as the earlier CELL_COUNTS stated them.
_REFERENCE_CELL_COUNTS = {
    (1, 1): dict(events=23, total=75, age_le=(12, 41), female=(4, 22), rural=(11, 32)),
    (0, 1): dict(events=4, total=36, age_le=(2, 13), female=(1, 8), rural=(4, 26)),
    (1, 0): dict(events=23, total=31, age_le=(11, 13), female=(3, 5), rural=(13, 15)),
    (0, 0): dict(events=5, total=8, age_le=(2, 2), female=(0, 1), rural=(3, 6)),
}


def _reference_stratum_margins(cell, y):
    """(m, n_age_le, n_female, n_rural) within one (z1, z2, y) stratum."""
    if y == 1:
        return (cell["events"], cell["age_le"][0], cell["female"][0],
                cell["rural"][0])
    return (cell["total"] - cell["events"],
            cell["age_le"][1] - cell["age_le"][0],
            cell["female"][1] - cell["female"][0],
            cell["rural"][1] - cell["rural"][0])


def test_joint_counts_match_the_reference_repair():
    inputs = 0
    for m in range(13):
        for margins in product(range(m + 1), repeat=3):
            got = _joint_counts(m, *margins)
            want = _reference_joint_counts(m, *margins)
            assert list(got.items()) == list(want.items()), (m, margins)
            inputs += 1
    assert inputs == 8281


def test_stratum_margins_match_the_reference():
    assert list(CELL_COUNTS) == list(_REFERENCE_CELL_COUNTS)
    for z, cell in CELL_COUNTS.items():
        for y in (1, 0):
            assert tuple(e if y else t - e for e, t in cell.values()) == \
                _reference_stratum_margins(_REFERENCE_CELL_COUNTS[z], y)


@pytest.mark.parametrize("name, label", [
    ("overall", None),
    ("age_le", ("age", f"age<={AGE_SPLIT:g}")),
    ("female", ("male", "male=0")),
    ("rural", ("urban", "urban=0")),
])
def test_cohort_meets_every_published_margin(name, label):
    table = describe(cardia_cohort(), split_at={"age": AGE_SPLIT})
    counts = table.overall if label is None else \
        table.by_covariate[label[0]][label[1]]
    for z, cell in CELL_COUNTS.items():
        assert counts[z] == cell[name], z

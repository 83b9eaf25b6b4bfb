"""Tests for the margin repair of the bundled cohort reconstruction."""

from itertools import product

from riskdiff.fixtures import _joint_counts


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

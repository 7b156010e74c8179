"""The near-miss set: silent parses only go down, and exact renders parse as pinned."""

import pytest

from nearmiss import near_miss_table

SEEDS = 500  # 4,000 natural and 1,000 flat texts per row

# Silent parses per (format, perturbation) row at SEEDS seeds; every other row has none.
# A parser change may lower a ceiling; it must not raise one.
SILENT_CEILINGS = {
    ("natural", "doubled spaces"): 800,
    ("natural", "tail cut to 2/3"): 3490,
    ("natural", "one word dropped"): 1886,
    ("flat", "one word dropped"): 168,
}

# Changes with any state or diagnostic parsed from an exact render, or with the renders.
EXACT_RENDER_DIGEST = "735cb92c8fc4488a432f2698a93f04475b596c10702c20ae06e70a760627456f"


@pytest.fixture(scope="module")
def near_misses(ont):
    return near_miss_table(ont, SEEDS)


def test_near_miss_silent_counts_stay_under_their_ceilings(near_misses):
    table, _ = near_misses
    assert len(table) == 16
    for (fmt, name), counts in table.items():
        assert sum(counts.values()) == SEEDS * (8 if fmt == "natural" else 2), (fmt, name)
    silent = {row: counts["silent"] for row, counts in table.items()}
    assert {row: n for row, n in silent.items() if n > SILENT_CEILINGS.get(row, 0)} == {}


def test_exact_renders_parse_to_the_pinned_digest(near_misses):
    table, digest = near_misses
    assert table[("natural", "exact")]["exact"] == SEEDS * 8
    assert table[("flat", "exact")]["exact"] == SEEDS * 2
    assert digest == EXACT_RENDER_DIGEST

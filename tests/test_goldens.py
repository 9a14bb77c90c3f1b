"""Bundled scenarios: the committed files in scenarios/ are their only
source.  The circular table and the biased-power files are checked here
against independent references; the other files are pinned by the report
goldens and the benchmark manifest."""

from pathlib import Path

import pytest

from tensorfree.counterexample import DEFAULT_ALPHA, biased_power_scenario
from tensorfree.ncpartitions import enumerate_nc
from tensorfree.scalars import ZERO, ExactComplex, as_scalar
from tensorfree.starwords import iter_star_patterns

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# star pattern -> number of noncrossing pairings joining plain to starred
CIRCULAR_VALUES = {
    (False, True): 1,
    (False, True, False, True): 2,
    (False, True, False, True, False, True): 5,
    (False, False, True, True): 1,
}

EXPECTED_NAMES = [
    "free_without_dominating",
    "haar_dominated",
    "doubly_free",
    "circular_dominated",
    "biased_unitary",
    "biased_power_k2",
    "biased_power_k3",
    "mixed_order_collection",
    "free_pair_collection",
    "product_pair_collection",
    "integer_pair_collection",
]


def circular_sequence(bundled):
    return bundled("circular_dominated").tensor.factors[0].sequences[1]


def mixed_pairings(pattern):
    """Noncrossing pairings of the positions of pattern in which every
    pair joins a plain letter to a starred one: the star moment of a
    circular element."""
    return sum(
        all(len(b) == 2 and pattern[b[0] - 1] != pattern[b[1] - 1] for b in blocks)
        for blocks in enumerate_nc(len(pattern))
    )


def test_circular_moments(bundled):
    seq = circular_sequence(bundled)
    for pattern, count in CIRCULAR_VALUES.items():
        assert seq.moment(pattern) == ExactComplex(count), pattern
    # odd and unbalanced patterns vanish inside the completeness bound
    assert seq.moment((False,)) == ZERO
    assert seq.moment((False, False)) == ZERO
    assert seq.moment((False, True, False)) == ZERO
    assert seq.moment((False, False, True)) == ZERO


def test_circular_moments_are_hermitian(bundled):
    seq = circular_sequence(bundled)
    for pattern, count in CIRCULAR_VALUES.items():
        mirrored = tuple(not b for b in reversed(pattern))
        assert seq.moment(mirrored) == ExactComplex(count)


def test_circular_table_counts_noncrossing_pairings(bundled):
    seq = circular_sequence(bundled)
    assert seq.complete_through == 8
    expected = {}
    for n in range(1, 9):
        for pattern in iter_star_patterns(n):
            count = mixed_pairings(pattern)
            assert seq.moment(pattern) == ExactComplex(count), pattern
            if count:
                expected[pattern] = ExactComplex(count)
    # the file lists exactly the nonzero counts
    assert seq.values == expected


@pytest.mark.parametrize("K", [2, 3])
def test_biased_power_files_match_the_family(bundled, K):
    sf = bundled(f"biased_power_k{K}")
    built = biased_power_scenario(K, DEFAULT_ALPHA)
    assert sf.alpha == as_scalar(DEFAULT_ALPHA)
    assert sf.tensor.assignments == built.assignments
    assert len(sf.tensor.factors) == len(built.factors) == K
    for loaded, expected in zip(sf.tensor.factors, built.factors):
        assert type(loaded) is type(expected)
        assert loaded.assume_free == expected.assume_free
        assert loaded.sequences.keys() == expected.sequences.keys()
        for var, seq in expected.sequences.items():
            twin = loaded.sequences[var]
            assert (twin.unitary, twin.period) == (seq.unitary, seq.period)
            assert twin.values == seq.values


def test_catalog_names_and_kinds(bundled):
    assert sorted(p.stem for p in SCENARIO_DIR.glob("*.json")) == sorted(EXPECTED_NAMES)
    scenarios = [bundled(name) for name in EXPECTED_NAMES]
    assert [s.name for s in scenarios] == EXPECTED_NAMES
    kinds = {s.name: s.kind for s in scenarios}
    assert all(kinds[n] == "tensor" for n in EXPECTED_NAMES[:7])
    assert all(kinds[n] == "group" for n in EXPECTED_NAMES[7:])
    for s in scenarios:
        assert s.bounds, s.name
        assert (s.tensor is None) != (s.collection is None)

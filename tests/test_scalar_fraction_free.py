"""Integer scalars build no Fraction.

ExactComplex holds its value as three ints, so on integer operands its
arithmetic, zero test, equality and hash are int operations.  A counting
subclass stands in for the Fraction that tensorfree.scalars sees, and
must not be built by integer work: not by single operations, and not by
group-freeness's canonical-trace scan of a group collection, whose
traces are all 0 or 1.
"""

from fractions import Fraction

import pytest

from tensorfree import cli, scalars
from tensorfree.scalars import ExactComplex


@pytest.fixture
def fractions_built(monkeypatch):
    """The number of Fractions tensorfree.scalars builds from here on."""
    built = [0]

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built[0] += 1
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(scalars, "Fraction", Counted)
    return lambda: built[0]


def test_the_counter_sees_a_rational(fractions_built):
    assert ExactComplex(1, 2).re == 1
    assert fractions_built() > 0


def test_integer_operations_build_no_fraction(fractions_built):
    x, y = ExactComplex(6, -4), ExactComplex(-3)
    results = [x + y, x - y, x * y, 2 + x, 2 - x, x * 3, -x, x.conjugate()]
    results += [ExactComplex(7), ExactComplex(0, 5)]
    for z in results:
        z.is_zero(), z.is_real(), bool(z), hash(z)
        z == x, z == 3, z != 0, 0 == z
    assert fractions_built() == 0
    assert results[2] == ExactComplex(-18, 12) and hash(ExactComplex(-3)) == hash(-3)


def test_group_freeness_scan_builds_no_fraction(bundled, monkeypatch, fractions_built):
    sf = bundled("product_pair_collection")
    built_at_load = fractions_built()
    products = [0]
    multiply = ExactComplex.__mul__

    def counted(self, other):
        products[0] += 1
        return multiply(self, other)

    monkeypatch.setattr(ExactComplex, "__mul__", counted)
    verdict = cli._canonical_trace_verdict(sf.collection, cli.DEFAULT_BOUNDS["max_len"])
    assert verdict.free and verdict.words_checked > 0
    # the scan does scalar arithmetic, all of it on integers
    assert products[0] > 0
    assert fractions_built() == built_at_load

"""Census counts: closed form vs exhaustive, conventions, and block powers."""

from itertools import product

import pytest

from degmix import (
    BipartiteDegreeSequence,
    DivisibilityError,
    TooLarge,
    compose_bipartite_many,
    count_almost_half_regular,
    count_almost_half_regular_exhaustive,
    count_bipartite_graphical,
    count_composed_class,
    gale_ryser,
)

from conftest import nonincreasing_sequences


def test_formula_small_values():
    # 2*C(2m,m) - m^2 - 1
    assert count_almost_half_regular(1).count == 2
    assert count_almost_half_regular(2).count == 7
    assert count_almost_half_regular(3).count == 30


def test_formula_matches_exhaustive():
    for m in range(1, 5):
        assert (
            count_almost_half_regular(m).count
            == count_almost_half_regular_exhaustive(m).count
        )


def test_asymptotic_ratio_bounded():
    # count / (4^m / sqrt(m)) stays bounded, varies slowly, and approaches
    # the Stirling limit 2/sqrt(pi) of 2*C(2m,m) / (4^m/sqrt(m))
    ratios = []
    for m in range(1, 21):
        c = count_almost_half_regular(m).count
        ratios.append(c / (4 ** m / m ** 0.5))
    assert all(0.2 < r < 2.0 for r in ratios)
    assert all(abs(a - b) < 0.2 for a, b in zip(ratios, ratios[1:]))
    assert all(abs(a - b) < 0.02 for a, b in zip(ratios[5:], ratios[6:]))
    assert abs(ratios[-1] - 2 / 3.14159265358979 ** 0.5) < 0.01


def test_census_small():
    assert count_bipartite_graphical(1).count == 2


def brute_census(n):
    seqs = nonincreasing_sequences(n, n)
    return sum(
        1 for a in seqs for b in seqs if sum(a) == sum(b) and gale_ryser((a, b))
    )


def test_census_matches_brute_force_n2_n3():
    assert count_bipartite_graphical(2).count == brute_census(2)
    assert count_bipartite_graphical(3).count == brute_census(3)


def test_census_5_matches_all_graphs_oracle():
    # 1736 distinct bipartite degree sequences on 5+5, counted independently
    # from all 2^25 graphs in test_sequences
    assert count_bipartite_graphical(5).count == 1736


def test_census_cap():
    with pytest.raises(TooLarge):
        count_bipartite_graphical(11)
    with pytest.raises(TooLarge):
        count_almost_half_regular_exhaustive(11)
    # the cap is on the block, not on n
    with pytest.raises(TooLarge, match="census capped at block = 10"):
        count_composed_class(22, 11)


def test_composed_class_counts():
    assert count_composed_class(6, 6).count == count_bipartite_graphical(6).count
    base = count_bipartite_graphical(2).count
    assert count_composed_class(4, 2).count == base ** 2
    with pytest.raises(DivisibilityError):
        count_composed_class(7, 2)


def test_block_distinctness_backs_the_power_bound():
    # composing different ordered tuples of fixed-size blocks yields
    # different sequences (checked exhaustively for 2+2 blocks, 2-3 factors)
    blocks = []
    for u in nonincreasing_sequences(2, 2):
        for w in nonincreasing_sequences(2, 2):
            if gale_ryser((u, w)):
                blocks.append(BipartiteDegreeSequence(u, w))
    assert len(blocks) == count_bipartite_graphical(2).count
    for r in (2, 3):
        seen = set()
        for tup in product(range(len(blocks)), repeat=r):
            comp = compose_bipartite_many([blocks[i] for i in tup]).canonical()
            assert comp not in seen
            seen.add(comp)
        assert len(seen) == len(blocks) ** r


def test_report_fields():
    rep = count_bipartite_graphical(2)
    assert (rep.parameter, rep.method) == (2, "exhaustive")
    rep = count_almost_half_regular(3)
    assert rep.method == "formula"

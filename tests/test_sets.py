"""Set transforms that map factor sets to determinant-row degree sets."""

from itertools import chain, combinations

import pytest

from krallhahn.sets import (
    SetQuartet,
    default_pads,
    degree_sum_halfwidth,
    involution,
    padded_complement,
    set_max,
    theorem_halfwidth,
    transform_quartet,
)


def _subsets(universe):
    return chain.from_iterable(combinations(universe, k) for k in range(len(universe) + 1))


def test_set_max_empty_convention():
    assert set_max(()) == -1
    assert set_max((2, 5)) == 5


def test_involution_known_values():
    assert involution(()) == ()
    assert involution((1,)) == (1,)
    # a full initial segment collapses to its top element and back
    for k in range(1, 7):
        segment = tuple(range(1, k + 1))
        assert involution(segment) == (k,)
        assert involution((k,)) == segment
    assert involution((1, 4)) == (1, 2, 4)


def test_involution_is_an_involution():
    for fset in _subsets(range(1, 9)):
        assert involution(involution(fset)) == tuple(sorted(fset))


def test_involution_cardinality():
    # |I(F)| = max F - |F| + 1 with max(empty) = -1, so both sides are 0 there
    for fset in _subsets(range(1, 9)):
        image = involution(fset)
        assert len(image) == set_max(tuple(sorted(fset))) - len(fset) + 1
        if fset:
            assert max(image) == max(fset)


def test_padded_complement():
    assert padded_complement((), 1) == ()
    assert padded_complement((), 3) == (0, 1)
    assert padded_complement((1,), 1) == (1,)
    assert padded_complement((2,), 1) == (0, 2)
    assert padded_complement((1, 3), 2) == (1, 3, 4)
    with pytest.raises(ValueError):
        padded_complement((1,), 0)


def test_padded_complement_cardinality():
    for fset in _subsets(range(1, 7)):
        for pad in (1, 2, 3):
            image = padded_complement(fset, pad)
            assert len(image) == set_max(tuple(sorted(fset))) + pad - len(fset)


def test_quartet_normalisation():
    q = SetQuartet.of((3, 1), (), (2, 2), (5,))
    assert q.sets == ((1, 3), (), (2,), (5,))
    assert q.maxima == (3, -1, 2, 5)
    with pytest.raises(ValueError):
        SetQuartet.of((0,))


def test_reversal_fixes_fourth_set():
    q = SetQuartet.of((1, 3), (2,), (), (4, 7))
    rev = q.reversal()
    assert rev.first == (1, 3)  # {3-3+1, 3-1+1}
    assert rev.second == (1,)
    assert rev.third == ()
    assert rev.fourth == (4, 7)
    # a reversed set always contains 1, and on such sets the map inverts itself
    assert rev.reversal().reversal() == rev


def test_default_pads_and_transform():
    q = SetQuartet.of((2,), (), (1,), (1, 2))
    assert default_pads(q) == (2, 1, 1)
    rows = transform_quartet(q, default_pads(q))
    assert rows == ((0, 2, 3), (), (1,), (2,))


def test_reversal_transform_matches_involution():
    """Padding a reversed set by the original minimum gives the involution.

    This is the bridge between the two construction paths: the row-degree set
    produced from the reversed set with the original set's minimum as pad is
    exactly the involution image of the original set.
    """
    for fset in _subsets(range(1, 8)):
        if not fset:
            continue
        q = SetQuartet.of(fset)
        pad = default_pads(q)[0]
        assert padded_complement(q.reversal().first, pad) == involution(fset)


def test_halfwidth_formulas_agree():
    """Both half-order formulas agree through the reversal bridge."""
    quartets = [
        SetQuartet.of((), (), (), (1,)),
        SetQuartet.of((1,), (1,), (1,), (1,)),
        SetQuartet.of((2,), (1, 3), (), (2,)),
        SetQuartet.of((), (2,), (1,), ()),
    ]
    for q in quartets:
        pads = default_pads(q)
        assert degree_sum_halfwidth(q.sets) == theorem_halfwidth(q.reversal(), pads)
        rows = transform_quartet(q.reversal(), pads)
        assert degree_sum_halfwidth(rows) == degree_sum_halfwidth(q.sets)


def test_halfwidth_values():
    assert degree_sum_halfwidth(SetQuartet.of((), (), (), (1,)).sets) == 2
    assert degree_sum_halfwidth(SetQuartet.of((1,), (1,), (1,), (1,)).sets) == 5
    assert theorem_halfwidth(SetQuartet.of(), (1, 1, 1)) == 1

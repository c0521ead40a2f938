import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsgames._mixedradix import decode, encode, integer_nth_root, project, table_size


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5), st.data())
def test_encode_decode_roundtrip(radii, data):
    index = data.draw(st.integers(min_value=0, max_value=table_size(radii) - 1))
    assert encode(decode(index, radii), radii) == index


def test_last_component_fastest():
    assert encode((0, 1), (2, 3)) == 1
    assert encode((1, 0), (2, 3)) == 3
    assert decode(4, (2, 3)) == (1, 1)


def _project_by_definition(sizes, positions):
    radii = [sizes[p] for p in positions]
    return tuple(
        encode([decode(i, sizes)[p] for p in positions], radii) for i in range(table_size(sizes))
    )


@pytest.mark.parametrize("sizes", [(3,), (2, 3), (3, 1, 2), (1, 1), (2, 1, 3, 2)])
def test_project_matches_decode_encode(sizes):
    """Every selection and order of digits: empty, single, subsets, full
    permutations, including size-1 alphabets."""
    for k in range(len(sizes) + 1):
        for positions in itertools.permutations(range(len(sizes)), k):
            assert project(sizes, positions) == _project_by_definition(sizes, positions)


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4), st.data())
def test_project_random_positions(sizes, data):
    positions = data.draw(st.permutations(range(len(sizes))))
    positions = positions[: data.draw(st.integers(min_value=0, max_value=len(sizes)))]
    assert project(sizes, positions) == _project_by_definition(sizes, positions)


def test_project_examples():
    assert project((2, 3), ()) == (0,) * 6
    assert project((2, 3), (1,)) == (0, 1, 2, 0, 1, 2)
    assert project((2, 3), (1, 0)) == (0, 2, 4, 1, 3, 5)
    assert project((2, 3), (0, 1)) == tuple(range(6))
    # a repeated position copies its digit: the diagonal of (2, 3) x (2, 3)
    assert project((2, 3), (0, 1, 0, 1)) == tuple(i * 6 + i for i in range(6))


def test_integer_nth_root():
    assert integer_nth_root(8, 3) == 2
    assert integer_nth_root(9, 2) == 3
    assert integer_nth_root(10, 2) is None
    assert integer_nth_root(1, 5) == 1
    assert integer_nth_root(0, 2) is None


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=6))
def test_integer_nth_root_exact(base, n):
    assert integer_nth_root(base**n, n) == base

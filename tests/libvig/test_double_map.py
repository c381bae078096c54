"""Double-keyed map: both key directions, index binding, contracts."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.libvig.contracts import ContractViolation
from repro.libvig.double_map import DoubleMap


def _dmap(capacity=8):
    # Values are (key_a, key_b, payload) triples.
    return DoubleMap(
        capacity,
        key_a_of=lambda v: v[0],
        key_b_of=lambda v: v[1],
    )


class TestLookups:
    def test_put_then_get_by_both_keys(self):
        d = _dmap()
        d.put(3, ("alpha", "beta", 42))
        assert d.get_by_a("alpha") == 3
        assert d.get_by_b("beta") == 3
        assert d.get_value(3) == ("alpha", "beta", 42)

    def test_missing_keys_return_none(self):
        d = _dmap()
        assert d.get_by_a("ghost") is None
        assert d.get_by_b("ghost") is None

    def test_keys_are_independent_spaces(self):
        d = _dmap()
        d.put(0, ("same", "other", 1))
        # "same" exists only in the A space.
        assert d.get_by_b("same") is None

    def test_get_value_vacant_raises(self):
        d = _dmap()
        with pytest.raises(KeyError):
            d.get_value(5)

    def test_index_bounds(self):
        d = _dmap(4)
        with pytest.raises(IndexError):
            d.put(4, ("a", "b", 0))
        with pytest.raises(IndexError):
            d.get_value(-1)


class TestUpdates:
    def test_erase_removes_both_keys(self):
        d = _dmap()
        d.put(1, ("a", "b", 7))
        assert d.erase(1) == ("a", "b", 7)
        assert d.get_by_a("a") is None
        assert d.get_by_b("b") is None
        with pytest.raises(KeyError):
            d.get_value(1)

    def test_erase_vacant_raises(self):
        d = _dmap()
        with pytest.raises(KeyError):
            d.erase(0)

    def test_double_put_same_index_raises(self):
        d = _dmap()
        d.put(0, ("a", "b", 1))
        with pytest.raises(KeyError):
            d.put(0, ("c", "d", 2))

    def test_duplicate_key_raises(self):
        d = _dmap()
        d.put(0, ("a", "b", 1))
        with pytest.raises(KeyError):
            d.put(1, ("a", "z", 2))
        with pytest.raises(KeyError):
            d.put(1, ("z", "b", 2))

    def test_reuse_index_after_erase(self):
        d = _dmap()
        d.put(0, ("a", "b", 1))
        d.erase(0)
        d.put(0, ("c", "d", 2))
        assert d.get_by_a("c") == 0

    def test_size_and_items(self):
        d = _dmap()
        d.put(0, ("a", "b", 1))
        d.put(5, ("c", "d", 2))
        assert d.size() == 2
        assert [i for i, _ in d.items()] == [0, 5]

    def test_full(self):
        d = _dmap(2)
        d.put(0, ("a", "b", 1))
        assert not d.full()
        d.put(1, ("c", "d", 2))
        assert d.full()


class TestContracts:
    def test_put_occupied_contract(self, contracts):
        d = _dmap()
        d.put(0, ("a", "b", 1))
        with pytest.raises((ContractViolation, KeyError)):
            d.put(0, ("c", "d", 2))

    def test_erase_vacant_contract(self, contracts):
        d = _dmap()
        with pytest.raises((ContractViolation, KeyError)):
            d.erase(3)

    def test_consistent_ops_pass_contracts(self, contracts):
        d = _dmap()
        d.put(0, ("a", "b", 1))
        d.put(1, ("c", "d", 2))
        d.erase(0)
        d.put(0, ("e", "f", 3))
        assert d.size() == 2


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "erase", "get_a", "get_b"]),
            st.integers(0, 5),
        ),
        max_size=40,
    )
)
def test_refinement_against_abstract_double_map(ops):
    """Concrete double-map commutes with the abstract model (P3)."""
    d = _dmap(6)
    values = {}  # index -> value
    by_a = {}
    by_b = {}
    for op, index in ops:
        key_a, key_b = f"a{index}", f"b{index}"
        if op == "put":
            if index not in values and key_a not in by_a and key_b not in by_b:
                d.put(index, (key_a, key_b, index))
                values[index] = (key_a, key_b, index)
                by_a[key_a] = index
                by_b[key_b] = index
        elif op == "erase":
            if index in values:
                value = d.erase(index)
                del by_a[value[0]]
                del by_b[value[1]]
                del values[index]
        elif op == "get_a":
            assert d.get_by_a(key_a) == by_a.get(key_a)
        else:
            assert d.get_by_b(key_b) == by_b.get(key_b)
        state = d._abstract_state()
        assert dict(state.values) == values
        assert dict(state.by_a) == by_a
        assert dict(state.by_b) == by_b

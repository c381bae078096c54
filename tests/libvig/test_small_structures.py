"""Port allocator, expirator, hash table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.libvig.double_chain import DoubleChain
from repro.libvig.double_map import DoubleMap
from repro.libvig.expirator import expire_items
from repro.libvig.hash_table import ChainingHashTable
from repro.libvig.port_allocator import PortAllocator, PortExhaustion


class TestPortAllocator:
    def test_allocates_distinct_ports(self):
        alloc = PortAllocator(1000, 5)
        ports = {alloc.allocate() for _ in range(5)}
        assert ports == set(range(1000, 1005))

    def test_exhaustion(self):
        alloc = PortAllocator(1000, 1)
        alloc.allocate()
        with pytest.raises(PortExhaustion):
            alloc.allocate()

    def test_release_enables_reuse(self):
        alloc = PortAllocator(1000, 1)
        port = alloc.allocate()
        alloc.release(port)
        assert alloc.allocate() == port

    def test_release_unallocated_raises(self):
        alloc = PortAllocator(1000, 4)
        with pytest.raises(KeyError):
            alloc.release(1000)

    def test_out_of_range_rejected(self):
        alloc = PortAllocator(1000, 4)
        with pytest.raises(ValueError):
            alloc.is_allocated(999)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            PortAllocator(65530, 10)  # crosses 65535

    def test_available(self):
        alloc = PortAllocator(1, 10)
        alloc.allocate()
        assert alloc.available() == 9


class TestExpirator:
    def _pair(self, capacity=8):
        dmap = DoubleMap(capacity, key_a_of=lambda v: v[0], key_b_of=lambda v: v[1])
        chain = DoubleChain(capacity)
        return dmap, chain

    def test_expires_only_stale(self):
        dmap, chain = self._pair()
        for t in (10, 20, 30):
            index = chain.allocate_new_index(t)
            dmap.put(index, (f"a{index}", f"b{index}", t))
        count = expire_items(chain, dmap, 25)
        assert count == 2
        assert dmap.size() == 1
        assert chain.size() == 1

    def test_noop_when_all_fresh(self):
        dmap, chain = self._pair()
        index = chain.allocate_new_index(100)
        dmap.put(index, ("a", "b", 0))
        assert expire_items(chain, dmap, 50) == 0
        assert dmap.size() == 1

    def test_chain_and_map_stay_consistent(self):
        dmap, chain = self._pair()
        for t in range(8):
            index = chain.allocate_new_index(t)
            dmap.put(index, (f"a{index}", f"b{index}", t))
        expire_items(chain, dmap, 4)
        assert dmap.size() == chain.size() == 4
        for index, value in dmap.items():
            assert chain.is_index_allocated(index)


class TestChainingHashTable:
    def test_put_get_overwrite(self):
        t = ChainingHashTable(8)
        t.put("k", 1)
        t.put("k", 2)
        assert t.get("k") == 2
        assert t.size() == 1

    def test_erase(self):
        t = ChainingHashTable(8)
        t.put("k", 1)
        assert t.erase("k") == 1
        with pytest.raises(KeyError):
            t.erase("k")

    def test_unbounded_growth(self):
        """Unlike libVig's map, chains grow without limit."""
        t = ChainingHashTable(2)
        for i in range(100):
            t.put(i, i)
        assert t.size() == 100
        assert t.longest_chain() >= 50

    def test_collisions_resolved(self):
        t = ChainingHashTable(4, hash_fn=lambda k: 0)
        for i in range(10):
            t.put(i, i * 2)
        for i in range(10):
            assert t.get(i) == i * 2

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 10)), max_size=40))
    def test_refinement_against_dict(self, ops):
        t = ChainingHashTable(4)
        shadow = {}
        for is_put, key in ops:
            if is_put:
                t.put(key, key)
                shadow[key] = key
            elif key in shadow:
                t.erase(key)
                del shadow[key]
            assert t.get(key) == shadow.get(key)
            assert t.size() == len(shadow)

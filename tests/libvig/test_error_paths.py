"""A data-path operation that raises leaves its structure as it found it.

Each case drives one libVig operation into an error and holds it to the
exception type, to which check wins when several fail (index range, then
allocation, then time), and to the state afterwards: the chain's
``cells()`` and ``free_list()`` unchanged, and a map's arrays unchanged
with ``MapStats`` moved only by the lookup's own count and probes.
"""

import pytest

from repro.libvig.double_chain import DoubleChain, TimeRegression
from repro.libvig.errors import CapacityError
from repro.libvig.map import Map
from repro.libvig.static_array import StaticArray


def _chain(times=(10, 20, 30, 40), index_range=6, freed=(1,)):
    """A chain with some indexes allocated, some freed, a mixed free list."""
    chain = DoubleChain(index_range)
    for time in times:
        chain.allocate_new_index(time)
    for index in freed:
        chain.free_index(index)
    return chain


def _chain_state(chain):
    return chain.cells(), chain.free_list(), chain.size(), chain.get_oldest()


def _raises_atomically(chain, exc_type, operation, *args):
    before = _chain_state(chain)
    with pytest.raises(exc_type):
        getattr(chain, operation)(*args)
    assert _chain_state(chain) == before


class TestChainRejuvenate:
    @pytest.mark.parametrize("index", [-1, 6, 100])
    def test_out_of_range_index(self, index):
        _raises_atomically(_chain(), IndexError, "rejuvenate_index", index, 50)

    def test_out_of_range_wins_over_a_regressed_time(self):
        _raises_atomically(_chain(), IndexError, "rejuvenate_index", 6, 0)

    @pytest.mark.parametrize("index", [1, 4, 5])  # freed, never allocated
    def test_unallocated_index(self, index):
        _raises_atomically(_chain(), KeyError, "rejuvenate_index", index, 50)

    def test_unallocated_wins_over_a_regressed_time(self):
        _raises_atomically(_chain(), KeyError, "rejuvenate_index", 1, 0)

    @pytest.mark.parametrize("index", [0, 2, 3])  # head, middle, tail
    def test_time_before_the_newest_stamp(self, index):
        _raises_atomically(_chain(), TimeRegression, "rejuvenate_index", index, 39)

    def test_tail_with_its_own_older_time_regresses(self):
        chain = _chain()
        _raises_atomically(chain, TimeRegression, "rejuvenate_index", 3, 35)

    def test_rejuvenating_the_tail_restamps_it_in_place(self):
        chain = _chain()
        free = chain.free_list()
        chain.rejuvenate_index(3, 40)
        assert chain.cells() == ((0, 10), (2, 30), (3, 40))
        chain.rejuvenate_index(3, 45)
        assert chain.cells() == ((0, 10), (2, 30), (3, 45))
        assert chain.free_list() == free

    def test_rejuvenating_the_head_moves_it_newest(self):
        chain = _chain()
        free = chain.free_list()
        chain.rejuvenate_index(0, 50)
        assert chain.cells() == ((2, 30), (3, 40), (0, 50))
        assert chain.get_oldest() == (2, 30)
        assert chain.free_list() == free

    def test_rejuvenating_the_only_cell(self):
        chain = DoubleChain(3)
        index = chain.allocate_new_index(5)
        chain.rejuvenate_index(index, 5)
        chain.rejuvenate_index(index, 9)
        assert chain.cells() == ((index, 9),)
        assert chain.expire_one_index(10) == index
        assert chain.cells() == ()
        assert chain.free_list() == (index, 1, 2)


class TestChainAllocate:
    def test_regressed_time_on_a_full_chain_raises(self):
        chain = DoubleChain(2)
        chain.allocate_new_index(10)
        chain.allocate_new_index(20)
        assert chain.allocate_new_index(20) is None  # full, time fine
        _raises_atomically(chain, TimeRegression, "allocate_new_index", 19)

    def test_regressed_time_with_room(self):
        _raises_atomically(_chain(), TimeRegression, "allocate_new_index", 39)

    def test_empty_chain_takes_any_time(self):
        chain = DoubleChain(2)
        assert chain.allocate_new_index(0) == 0


class TestChainFree:
    @pytest.mark.parametrize("index", [-1, 6])
    def test_out_of_range_index(self, index):
        _raises_atomically(_chain(), IndexError, "free_index", index)

    @pytest.mark.parametrize("index", [1, 4])
    def test_unallocated_index(self, index):
        _raises_atomically(_chain(), KeyError, "free_index", index)

    def test_freed_index_heads_the_free_list(self):
        chain = _chain()
        chain.free_index(2)
        assert chain.free_list() == (2, 1, 4, 5)
        assert chain.cells() == ((0, 10), (3, 40))


class TestChainRestore:
    """Validate-before-mutate: a rejected checkpoint leaves the chain fresh."""

    @pytest.mark.parametrize(
        "cells, free_list, exc_type, message",
        [
            ([(0, 1), (7, 2)], None, ValueError, "out of range"),
            ([(0, 1), (2, 2), (0, 3)], None, ValueError, "appears twice"),
            ([(0, 5), (1, 4)], None, TimeRegression, "regress at index 1"),
            ([(0, 1)], [1, 2, 3], ValueError, "cover exactly"),
            ([(0, 1)], [1, 2, 3, 4, 5, 5], ValueError, "cover exactly"),
        ],
    )
    def test_rejected_checkpoint_changes_nothing(
        self, cells, free_list, exc_type, message
    ):
        chain = DoubleChain(6)
        before = _chain_state(chain)
        with pytest.raises(exc_type, match=message):
            chain.restore_cells(cells, free_list)
        assert _chain_state(chain) == before
        assert chain.allocate_new_index(0) == 0

    def test_restore_requires_an_empty_chain(self):
        chain = _chain()
        _raises_atomically(chain, ValueError, "restore_cells", [])

    def test_restored_chain_replays(self):
        original = _chain(times=(1, 2, 3, 4, 5), index_range=8, freed=(3, 0))
        copy = DoubleChain(8)
        copy.restore_cells(original.cells(), original.free_list())
        assert _chain_state(copy) == _chain_state(original)
        for time in (6, 7, 8, 9, 10):
            assert copy.allocate_new_index(time) == original.allocate_new_index(time)
        assert _chain_state(copy) == _chain_state(original)


def _colliding_map(keys):
    """A map whose every key hashes home to slot 0: one long probe chain."""
    m = Map(16, hash_fn=lambda key: 0)
    for key in keys:
        m.put(key, key * 10)
    return m


def _map_state(m):
    return tuple(m._busy), tuple(m._keys), tuple(m._values), tuple(m._chains), m.size()


class TestMapErrors:
    def test_erasing_an_absent_key_behind_a_long_chain(self):
        m = _colliding_map(range(9))
        before = _map_state(m)
        probes = m.stats.probes
        with pytest.raises(KeyError):
            m.erase("absent")
        assert _map_state(m) == before
        # One erase counted; it walked the nine busy slots and stopped at
        # the first free one with a zero chain counter.
        assert (m.stats.gets, m.stats.puts, m.stats.erases) == (0, 9, 1)
        assert m.stats.probes - probes == 10

    def test_erasing_an_absent_key_past_erased_slots(self):
        m = _colliding_map(range(9))
        m.erase(0)
        m.erase(4)  # holes whose chain counters keep the walk going
        before = _map_state(m)
        probes = m.stats.probes
        with pytest.raises(KeyError):
            m.erase(0)
        assert _map_state(m) == before
        assert m.stats.probes - probes == 10

    def test_erase_unwinds_the_chain_it_passed(self):
        m = _colliding_map(range(4))
        assert m._chains[:4] == [3, 2, 1, 0]
        assert m.erase(2) == 20
        assert m._chains[:4] == [2, 1, 1, 0]
        assert m.get(3) == 30

    def test_full_map_put_raises_before_counting(self):
        m = Map(3)
        for key in "abc":
            m.put(key, key)
        before, stats = _map_state(m), (m.stats.puts, m.stats.probes)
        with pytest.raises(CapacityError):
            m.put("d", 0)
        assert _map_state(m) == before
        assert (m.stats.puts, m.stats.probes) == stats

    def test_probe_wraps_past_the_last_slot(self):
        m = Map(4, hash_fn=lambda key: 3)
        for key in "abc":
            m.put(key, key)
        assert m._busy == [True, True, False, True]
        assert m.get("c") == "c"
        assert m.erase("b") == "b"
        assert m._chains == [1, 0, 0, 1]  # c still passes slots 3 and 0
        assert not m.has("b")
        assert m.get("b", "gone") == "gone"


class TestStaticArrayErrors:
    @pytest.mark.parametrize("index", [-1, 4, 100])
    def test_out_of_range(self, index):
        array = StaticArray(4, init=lambda i: i)
        with pytest.raises(IndexError):
            array.get(index)
        with pytest.raises(IndexError):
            array.set(index, 9)
        assert list(array) == [0, 1, 2, 3]

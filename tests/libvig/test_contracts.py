"""The runtime contract machinery itself."""

import pytest

from repro.libvig.contracts import (
    ContractViolation,
    checked,
    contract,
    contracts_enabled,
    disable_contracts,
    enable_contracts,
)
from repro.libvig.double_chain import DoubleChain
from repro.libvig.double_map import DoubleMap
from repro.libvig.map import Map


class Counter:
    """A tiny contracted class for exercising the decorator."""

    def __init__(self) -> None:
        self.value = 0

    def _abstract_state(self) -> int:
        return self.value

    @contract(
        requires=lambda self, amount: amount >= 0,
        ensures=lambda old, result, self, amount: self.value == old + amount,
    )
    def add(self, amount: int) -> None:
        self.value += amount

    @contract(
        requires=lambda self: self.value > 0,
        ensures=lambda old, result, self: result == old,
    )
    def read_then_zero(self) -> int:
        result = self.value
        self.value = 0
        return result

    @contract(ensures=lambda old, result, self: self.value == old + 1)
    def buggy_increment(self) -> None:
        self.value += 2  # violates its own postcondition


class TestEnablement:
    def test_disabled_by_default(self):
        assert not contracts_enabled()
        Counter().add(-5)  # no violation raised when disabled

    def test_enable_disable(self):
        enable_contracts()
        assert contracts_enabled()
        disable_contracts()
        assert not contracts_enabled()

    def test_checked_context_restores(self):
        assert not contracts_enabled()
        with checked():
            assert contracts_enabled()
        assert not contracts_enabled()

    def test_checked_restores_on_exception(self):
        try:
            with checked():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert not contracts_enabled()


class TestEnforcement:
    def test_requires_violation(self, contracts):
        with pytest.raises(ContractViolation) as excinfo:
            Counter().add(-1)
        assert excinfo.value.kind == "requires"

    def test_ensures_violation(self, contracts):
        with pytest.raises(ContractViolation) as excinfo:
            Counter().buggy_increment()
        assert excinfo.value.kind == "ensures"

    def test_passing_call(self, contracts):
        counter = Counter()
        counter.add(5)
        assert counter.read_then_zero() == 5

    def test_requires_checked_before_mutation(self, contracts):
        counter = Counter()
        with pytest.raises(ContractViolation):
            counter.read_then_zero()  # value == 0 violates requires
        assert counter.value == 0  # body never ran

    def test_introspection_attributes(self):
        assert Counter.add.__contract_requires__ is not None
        assert Counter.add.__contract_ensures__ is not None


#: Contracted methods on the data path, by class.
DATA_PATH = ((DoubleChain, "rejuvenate_index"), (DoubleMap, "put"), (Map, "erase"))


def _bound(cls, name):
    return vars(cls)[name]


def _assert_bound(checking):
    """The checked wrapper (``functools.wraps`` gives it ``__wrapped__``)
    or the bare function is each data-path method's class attribute."""
    for cls, name in DATA_PATH:
        assert hasattr(_bound(cls, name), "__wrapped__") is checking, (cls, name)


class TestBinding:
    """Off, a contracted method *is* the undecorated function; on, the
    class attribute is the checked wrapper. Every switch rebinds."""

    def test_off_binds_the_bare_function(self):
        assert not contracts_enabled()
        _assert_bound(False)
        with pytest.raises(KeyError):  # the body's own guard, no contract
            Map(4).erase("missing")

    @staticmethod
    def _assert_checking():
        _assert_bound(True)
        with pytest.raises(ContractViolation) as excinfo:
            Map(4).erase("missing")
        assert excinfo.value.kind == "requires"
        with pytest.raises(ContractViolation):
            DoubleChain(4).rejuvenate_index(0, 1)

    def test_checked_binds_the_checked_wrapper(self):
        with checked():
            self._assert_checking()
        _assert_bound(False)

    def test_enable_binds_the_checked_wrapper(self, contracts):
        self._assert_checking()
        disable_contracts()
        _assert_bound(False)

    def test_nested_and_failing_blocks_restore_the_bare_function(self):
        bare = {(cls, name): _bound(cls, name) for cls, name in DATA_PATH}
        with checked():
            with checked():
                _assert_bound(True)
            _assert_bound(True)
        _assert_bound(False)
        with pytest.raises(RuntimeError):
            with checked():
                with checked():
                    raise RuntimeError("boom")
        assert {(c, n): _bound(c, n) for c, n in DATA_PATH} == bare
        assert not contracts_enabled()

    def test_a_subclass_inherits_whatever_is_bound(self):
        class Child(Map):
            pass

        assert Child.erase is Map.erase
        assert not hasattr(Child.erase, "__wrapped__")
        with checked():
            assert Child.erase is Map.erase
            with pytest.raises(ContractViolation):
                Child(4).erase("missing")
        assert Child.erase is Map.erase

    def test_introspection_in_both_states(self):
        def assert_introspectable():
            for cls, name in DATA_PATH + ((Counter, "add"),):
                method = _bound(cls, name)
                assert method.__contract_requires__ is not None
                assert method.__contract_ensures__ is not None

        assert_introspectable()
        with checked():
            assert_introspectable()

"""The classic fixed-size array (§5.1.1 lists it alongside map/vector).

A bounds-checked, preallocated scalar array with contracts — the
simplest libVig type, used where the NF needs plain indexed storage
without the vector's borrow/return ownership protocol (e.g. the rate
limiter's per-slot counters, which are scalars updated in place).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.libvig.contracts import contract


class StaticArray:
    """Fixed-size array of scalars with checked indexing."""

    def __init__(self, capacity: int, init: Callable[[int], Any] | None = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        factory = init if init is not None else (lambda _i: 0)
        self._cells: list = [factory(i) for i in range(capacity)]

    def _abstract_state(self) -> tuple:
        return tuple(self._cells)

    def _in_bounds(self, index: int) -> bool:
        # The contracts' bound; the bodies test it inline.
        return 0 <= index < self.capacity

    @contract(
        requires=lambda self, index: self._in_bounds(index),
        ensures=lambda old, result, self, index: result == old[index],
    )
    def get(self, index: int) -> Any:
        """Read cell ``index``; bounds are a contract precondition."""
        if not 0 <= index < self.capacity:
            raise IndexError(f"index {index} out of range [0, {self.capacity})")
        return self._cells[index]

    @contract(
        requires=lambda self, index, value: self._in_bounds(index),
        ensures=lambda old, result, self, index, value: (
            self._cells[index] == value
            and all(
                self._cells[i] == old[i]
                for i in range(self.capacity)
                if i != index
            )
        ),
    )
    def set(self, index: int, value: Any) -> None:
        """Write cell ``index``; all other cells provably untouched."""
        if not 0 <= index < self.capacity:
            raise IndexError(f"index {index} out of range [0, {self.capacity})")
        self._cells[index] = value

    def __len__(self) -> int:
        return self.capacity

    def __iter__(self) -> Iterator[Any]:
        return iter(self._cells)

"""Runtime contract enforcement for libVig data structures.

The paper specifies each libVig method with a separation-logic contract
(requires/ensures) checked by VeriFast (§5.1.2-§5.1.3). In this
reproduction the same contracts exist in two executable forms:

1. *Runtime checks* (this module): decorators that evaluate the pre- and
   post-condition on every call, against the structure's pure abstract
   state. The refinement test-suite runs with these enabled and hypothesis
   drives the structures through random operation sequences — the P3
   analogue.
2. *Symbolic contracts* (:mod:`repro.verif.models`): the same conditions
   expressed over symbolic trace values, used by the Validator for the
   lazy proofs (P4/P5).

Checking is off by default, and then the data path pays nothing: every
contracted method's class attribute *is* the undecorated function, the
way VeriFast's annotations never execute. Each ``@contract`` site is
recorded; enabling checking (globally, or per-block via :func:`checked`)
rebinds every site to its checked wrapper, and disabling binds the bare
function back.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Tuple

from repro.libvig.errors import LibVigError

_ENABLED = False

#: Every contracted method: (class, name, bare function, checked wrapper).
_SITES: List[Tuple[type, str, Callable[..., Any], Callable[..., Any]]] = []


class ContractViolation(LibVigError):
    """A requires- or ensures-clause evaluated to False at runtime."""

    def __init__(self, kind: str, function: str, detail: str = "") -> None:
        self.kind = kind
        self.function = function
        self.detail = detail
        message = f"{kind} violated in {function}"
        if detail:
            message += f": {detail}"
        super().__init__(message)


def contracts_enabled() -> bool:
    """True when contract checking is globally enabled."""
    return _ENABLED


def _bind(enabled: bool) -> None:
    """Set the global switch and bind every recorded site to match it."""
    global _ENABLED
    _ENABLED = enabled
    for owner, name, bare, wrapper in _SITES:
        setattr(owner, name, wrapper if enabled else bare)


def enable_contracts() -> None:
    """Globally enable runtime contract checking."""
    _bind(True)


def disable_contracts() -> None:
    """Globally disable runtime contract checking."""
    _bind(False)


@contextmanager
def checked() -> Iterator[None]:
    """Enable contract checking for the duration of a with-block."""
    previous = _ENABLED
    _bind(True)
    try:
        yield
    finally:
        _bind(previous)


Predicate = Callable[..., bool]


class _Site:
    """What ``@contract`` leaves in a class body until the class exists:
    on ``__set_name__`` it records the site and binds whichever of its
    two functions the current setting asks for."""

    def __init__(self, bare: Callable[..., Any], wrapper: Callable[..., Any]):
        self.bare = bare
        self.wrapper = wrapper

    def __set_name__(self, owner: type, name: str) -> None:
        _SITES.append((owner, name, self.bare, self.wrapper))
        setattr(owner, name, self.wrapper if _ENABLED else self.bare)


def contract(
    requires: Predicate | None = None,
    ensures: Callable[..., bool] | None = None,
) -> Callable[[Callable[..., Any]], Any]:
    """Attach a requires/ensures pair to a method.

    ``requires`` receives the method's arguments (including ``self``).
    ``ensures`` receives ``old`` (the abstract-state snapshot taken before
    the call via ``self._abstract_state()``), ``result`` (the return
    value), then the original arguments. Either clause may be ``None``.

    For methods only: the class attribute is the bare method while
    checking is off and the checked wrapper while it is on. The contract
    callables are stored on both as ``__contract_requires__`` /
    ``__contract_ensures__`` so tooling (the Validator, documentation
    generators) can introspect them in either state.
    """

    def decorate(func: Callable[..., Any]) -> _Site:
        @functools.wraps(func)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            if requires is not None and not requires(self, *args, **kwargs):
                raise ContractViolation("requires", func.__qualname__)
            old = self._abstract_state()
            result = func(self, *args, **kwargs)
            if ensures is not None and not ensures(
                old, result, self, *args, **kwargs
            ):
                raise ContractViolation("ensures", func.__qualname__)
            return result

        for bound in (func, wrapper):
            bound.__contract_requires__ = requires  # type: ignore[attr-defined]
            bound.__contract_ensures__ = ensures  # type: ignore[attr-defined]
        return _Site(func, wrapper)

    return decorate

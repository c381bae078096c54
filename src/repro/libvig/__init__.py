"""libVig: the library of verified NF data structures (Python port).

The paper factors every piece of "difficult" NF state into a library of
data structures with formal interface contracts (§5.1). This package is the
Python port of that library:

- :mod:`repro.libvig.map` — open-addressing hash map with chain counters,
- :mod:`repro.libvig.double_map` — the double-keyed flow table,
- :mod:`repro.libvig.static_array` — the classic bounds-checked array,
- :mod:`repro.libvig.ring` — the ring buffer of the §3 worked example,
- :mod:`repro.libvig.double_chain` — LRU index allocator with timestamps,
- :mod:`repro.libvig.expirator` — flow expiration on top of the chain,
- :mod:`repro.libvig.port_allocator` — external port bookkeeping,
- :mod:`repro.libvig.hash_table` — chaining table (the *unverified*
  baseline's structure, mirroring the DPDK hash),
- :mod:`repro.libvig.contracts` — runtime contract enforcement,
- :mod:`repro.libvig.abstract` — pure functional models used by the
  refinement test-suite (the P3 analogue).

Every structure preallocates at construction time and never allocates on
the data path, matching libVig's design decision (§5.1.1).
"""

from repro.libvig.contracts import (
    ContractViolation,
    contracts_enabled,
    disable_contracts,
    enable_contracts,
)
from repro.libvig.double_chain import DoubleChain
from repro.libvig.double_map import DoubleMap
from repro.libvig.errors import CapacityError, LibVigError
from repro.libvig.expirator import expire_items
from repro.libvig.hash_table import ChainingHashTable
from repro.libvig.map import Map
from repro.libvig.port_allocator import PortAllocator
from repro.libvig.ring import Ring
from repro.libvig.static_array import StaticArray

__all__ = [
    "CapacityError",
    "ChainingHashTable",
    "ContractViolation",
    "DoubleChain",
    "DoubleMap",
    "LibVigError",
    "Map",
    "PortAllocator",
    "Ring",
    "StaticArray",
    "contracts_enabled",
    "disable_contracts",
    "enable_contracts",
    "expire_items",
]

"""Symbolic models of libVig and the DPDK layer (§5.1.4, Fig. 4).

A model is executable code that *simulates the effect* of calling into
the real library, over per-path symbolic state, while recording the call
into the trace. Models may be imperfect — the lazy-proofs Validator
checks a posteriori that each model's behaviour on the explored paths is
justified by the library's contract (P5).

:mod:`repro.verif.models.base` holds the table skeleton every
table-keeping NF's model extends; :mod:`repro.verif.models.nat` the flow
table the NAT and the firewall share (the bridge's and the limiter's
tables sit beside their specifications in ``nf_env_bridge`` /
``nf_env_limiter``); :mod:`repro.verif.models.ring` the three ring
models of Fig. 4 (the valid one, the too-abstract one, the too-specific
one) that drive the §3 worked example.
"""

from repro.verif.models.base import ModelBase
from repro.verif.models.nat import NatModelState
from repro.verif.models.ring import (
    GoodRingModel,
    OverApproximateRingModel,
    UnderApproximateRingModel,
)

__all__ = [
    "GoodRingModel",
    "ModelBase",
    "NatModelState",
    "OverApproximateRingModel",
    "UnderApproximateRingModel",
]

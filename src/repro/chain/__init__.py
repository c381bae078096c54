"""repro.chain: NF service chains behind the standard runtime protocol.

:mod:`repro.chain.spec` composes the repo's NFs into ordered service
chains (one frozen :class:`ChainSpec`, one :func:`launch_chain`);
:mod:`repro.chain.scenarios` runs operational scenarios — warm upgrade,
stage promotion, chaos soak — over live chain traffic. Each returns one
record of the *measured* loss and disruption beside the SLA budgets it
declares, and :func:`scenario_breaches` judges that record.
"""

from repro.chain.scenarios import (
    TICK_US,
    chain_scenarios,
    chaos_soak,
    default_chain_spec,
    promote_stage,
    scenario_breaches,
    warm_upgrade,
)
from repro.chain.spec import ChainRuntime, ChainSpec, ChainStage, launch_chain

__all__ = [
    "ChainRuntime",
    "ChainSpec",
    "ChainStage",
    "TICK_US",
    "chain_scenarios",
    "chaos_soak",
    "default_chain_spec",
    "launch_chain",
    "promote_stage",
    "scenario_breaches",
    "warm_upgrade",
]

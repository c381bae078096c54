"""repro.chain: NF service chains behind the standard runtime protocol.

:mod:`repro.chain.spec` composes the repo's NFs into ordered service
chains (one frozen :class:`ChainSpec`, one :func:`launch_chain`);
:mod:`repro.chain.scenarios` runs operational scenarios — warm upgrade,
stage promotion, chaos soak — over live chain traffic and judges the
*measured* loss and disruption against declared SLA budgets.
"""

from repro.chain.scenarios import (
    DEFAULT_TICK_US,
    SCENARIOS,
    ScenarioReport,
    ScenarioSla,
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
    "DEFAULT_TICK_US",
    "SCENARIOS",
    "ScenarioReport",
    "ScenarioSla",
    "chain_scenarios",
    "chaos_soak",
    "default_chain_spec",
    "launch_chain",
    "promote_stage",
    "scenario_breaches",
    "warm_upgrade",
]

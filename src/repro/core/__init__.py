"""The paper's primary contribution: the incremental mapping phase.

``map_application`` implements MapApplication (paper Fig. 5) on top of
the ring-wise platform search, the Cohen–Katzir–Raz GAP approximation
and the two-objective mapping cost function.
"""

from repro.core.cost import (
    BOTH,
    COMMUNICATION,
    FRAGMENTATION,
    NAMED_WEIGHTS,
    NONE,
    CostWeights,
    MappingCost,
)
from repro.core.gap import UNMAPPED_COST, GapAssignment, GapSolver
from repro.core.objectives import (
    CommunicationObjective,
    CompositeCost,
    EnergyObjective,
    FragmentationObjective,
    LoadBalancingObjective,
    Objective,
    WearLevelingObjective,
)
from repro.core.knapsack import (
    KnapsackItem,
    KnapsackSolution,
    solve_dp,
    solve_exhaustive,
    solve_greedy,
)
from repro.core.mapping import (
    LayerTrace,
    MappingError,
    MappingOptions,
    MappingResult,
    available_elements,
    map_application,
)
from repro.core.search import RingSearch, SparseDistanceMatrix

__all__ = [
    "BOTH",
    "COMMUNICATION",
    "CommunicationObjective",
    "CompositeCost",
    "CostWeights",
    "EnergyObjective",
    "FRAGMENTATION",
    "FragmentationObjective",
    "LoadBalancingObjective",
    "GapAssignment",
    "GapSolver",
    "KnapsackItem",
    "KnapsackSolution",
    "LayerTrace",
    "MappingCost",
    "MappingError",
    "MappingOptions",
    "MappingResult",
    "NAMED_WEIGHTS",
    "NONE",
    "Objective",
    "RingSearch",
    "SparseDistanceMatrix",
    "UNMAPPED_COST",
    "WearLevelingObjective",
    "available_elements",
    "map_application",
    "solve_dp",
    "solve_exhaustive",
    "solve_greedy",
]

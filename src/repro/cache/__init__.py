"""Cache, TLB and branch-predictor simulators.

These substrates stand in for the PAPI hardware counters the paper
uses to verify its problem-size selection (DESIGN.md §2).
"""

from .branch import BranchPredictor
from .hierarchy import CacheHierarchy
from .setassoc import CacheStats, SetAssociativeCache
from .tlb import TLB
from . import trace

__all__ = [
    "BranchPredictor",
    "CacheHierarchy",
    "CacheStats",
    "SetAssociativeCache",
    "TLB",
    "trace",
]

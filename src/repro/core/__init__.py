"""The paper's contribution: SABRe one-sided operations and the
LightSABRes destination-side hardware (ATT + stream buffers + R2P2).
"""

from repro.core.att import ActiveTransfersTable, AttEntry, SabreId
from repro.core.design_space import DESIGN_SPACE, CcSide, CcMethod, design_space_table
from repro.core.r2p2 import R2P2Engine

__all__ = [
    "ActiveTransfersTable",
    "AttEntry",
    "CcMethod",
    "CcSide",
    "DESIGN_SPACE",
    "R2P2Engine",
    "SabreId",
    "design_space_table",
]

"""High-level analysis entry point.

:class:`~repro.analysis.api.NoiseAnalysis` is the MFT analyzer built
straight from a netlist-backed model — model in, spectra and reports
out — for users who don't want to assemble the engines by hand.
"""

from ..diagnostics.budget import SweepBudget
from ..mft.corners import CornerSweepResult
from ..noise.result import PsdResult
from ..obs import Recorder
from .api import NoiseAnalysis, compare_spectra
from .spectrum import SpectrumComparison

__all__ = [
    "CornerSweepResult", "NoiseAnalysis", "PsdResult", "Recorder",
    "SpectrumComparison", "SweepBudget", "compare_spectra",
]

"""Spectrum-based diagnosis (Sect. 4.4)."""

from .components import (
    COMPONENTS,
    ComponentSpectra,
    RankedComponent,
)
from .evaluate import RankingQuality, evaluate_ranking, random_baseline_effort
from .instrument import (
    TELETEXT_SCENARIO_27,
    BlockInstrumenter,
    ScenarioResult,
    ScenarioRunner,
)
from .online import OnlineDiagnoser
from .sfl import RankedBlock, SpectrumDiagnoser
from .similarity import COEFFICIENTS, get_coefficient, ochiai, tarantula
from .spectra import SpectraCollector, SpectraCounts

__all__ = [
    "BlockInstrumenter",
    "COEFFICIENTS",
    "COMPONENTS",
    "ComponentSpectra",
    "OnlineDiagnoser",
    "RankedBlock",
    "RankedComponent",
    "RankingQuality",
    "ScenarioResult",
    "ScenarioRunner",
    "SpectraCollector",
    "SpectraCounts",
    "SpectrumDiagnoser",
    "TELETEXT_SCENARIO_27",
    "evaluate_ranking",
    "get_coefficient",
    "ochiai",
    "random_baseline_effort",
    "tarantula",
]

"""repro — hierarchical outlier detection for industrial production settings.

A full reproduction of Hoppenstedt et al., "Towards a Hierarchical Approach
for Outlier Detection in Industrial Production Settings" (First Int.
Workshop on Data Science for Industry 4.0 @ EDBT 2019), built as a
standalone library:

* :mod:`repro.core` — the paper's contribution: the five-level production
  hierarchy, Algorithm 1 and its ⟨global score, outlierness, support⟩
  triple, ChooseAlgorithm, cross-level fusion, and Fig.-1 outlier-type
  classification;
* :mod:`repro.detectors` — one from-scratch implementation per Table-1 row
  plus baselines, behind a uniform fit/score/detect API;
* :mod:`repro.timeseries` — series/sequence containers, windows, rolling
  statistics, resampling across resolutions, SAX;
* :mod:`repro.synthetic` — signal generators and the four Fig.-1 outlier
  injectors with ground truth;
* :mod:`repro.plant` — the simulated additive-manufacturing plant standing
  in for the paper's unavailable company data;
* :mod:`repro.corpus` — the synthetic bibliographic corpus + query engine
  behind Fig. 3;
* :mod:`repro.eval` — detection metrics and ranking comparison;
* :mod:`repro.obs` — end-to-end telemetry: tracing spans, a metrics
  registry, Prometheus/JSON exporters, run manifests, structured logs.

Quickstart::

    import numpy as np
    from repro.plant import simulate_plant
    from repro.core import HierarchicalDetectionPipeline

    pipeline = HierarchicalDetectionPipeline(simulate_plant())
    for report in pipeline.run()[:10]:
        print(report.describe())
"""

import importlib
from typing import Any, List

#: subpackages, imported on first attribute access (PEP 562) so that
#: ``python -m repro <cmd>`` loads only what the command uses
_SUBPACKAGES = frozenset(
    {"core", "corpus", "detectors", "eval", "monitor", "obs", "plant",
     "streaming", "synthetic", "timeseries"}
)
#: re-exported name -> subpackage that defines it
_EXPORTS = {
    "HierarchicalDetectionPipeline": "core",
    "HierarchicalOutlierReport": "core",
    "ProductionLevel": "core",
    "find_hierarchical_outliers": "core",
    "PlantConfig": "plant",
    "simulate_plant": "plant",
}

__version__ = "1.0.0"

__all__ = [
    "core",
    "detectors",
    "timeseries",
    "synthetic",
    "plant",
    "corpus",
    "eval",
    "monitor",
    "obs",
    "streaming",
    "ProductionLevel",
    "HierarchicalOutlierReport",
    "HierarchicalDetectionPipeline",
    "find_hierarchical_outliers",
    "simulate_plant",
    "PlantConfig",
    "__version__",
]


def __getattr__(name: str) -> Any:
    if name in _SUBPACKAGES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))

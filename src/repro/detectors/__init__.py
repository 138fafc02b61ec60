"""The paper's unfair-rating detectors and their integration (Section IV).

- :mod:`repro.detectors.base` -- shared configuration, time intervals, and
  the :class:`DetectionReport` produced by the joint detector.
- :mod:`repro.detectors.mean_change` -- MC detector (Section IV-B).
- :mod:`repro.detectors.arrival_rate` -- ARC / H-ARC / L-ARC detectors
  (Section IV-C).
- :mod:`repro.detectors.histogram` -- HC detector (Section IV-D).
- :mod:`repro.detectors.model_error` -- ME detector (Section IV-E).
- :mod:`repro.detectors.integration` -- the Figure 1 joint detector
  (Path 1 for strong attacks, Path 2 for alarm-confirmed intervals).
  It analyzes each product stream on its own; ``analyze_batch`` maps
  that over a dataset.
"""

from repro.detectors.arrival_rate import ArrivalRateDetector, ArrivalRateReport
from repro.detectors.base import (
    PROVENANCE_FLAGS,
    DetectionReport,
    DetectorConfig,
    TimeInterval,
    provenance_labels,
)
from repro.detectors.calibration import (
    CalibrationResult,
    NullStatistics,
    calibrate_thresholds,
)
from repro.detectors.histogram import HistogramChangeDetector
from repro.detectors.integration import JointDetector
from repro.detectors.mean_change import MeanChangeDetector, MeanChangeReport
from repro.detectors.model_error import ModelErrorDetector

__all__ = [
    "ArrivalRateDetector",
    "ArrivalRateReport",
    "CalibrationResult",
    "NullStatistics",
    "calibrate_thresholds",
    "DetectionReport",
    "DetectorConfig",
    "TimeInterval",
    "PROVENANCE_FLAGS",
    "provenance_labels",
    "HistogramChangeDetector",
    "JointDetector",
    "MeanChangeDetector",
    "MeanChangeReport",
    "ModelErrorDetector",
]

"""Automated selection of anomaly detectors for normal-only training data.

Detectors are characterized by two features computable without anomalies:
the hypervolume they span inside the minimal enclosing hypersphere of the
training data, and their Monte-Carlo cross-validated false-positive rate.
Candidates are ranked either by a linear combination of the two or by a
random-forest meta-model trained to predict scaled MCC from landmark
features of labeled corpora.

The package is used through its modules (``adselect.pipeline``,
``adselect.detectors``, ...); the root holds only the version.
"""

__version__ = "0.1.0"

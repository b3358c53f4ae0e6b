import json
import logging

import numpy as np
import pytest

from adselect.dataset import LabeledDataset


@pytest.fixture
def gaussian_normals():
    """Plain all-normal training data, 200 x 3."""
    rng = np.random.default_rng(101)
    return LabeledDataset(
        features=rng.standard_normal((200, 3)),
        labels=np.zeros(200, dtype=np.int8),
        name="gaussian_normals",
    )


@pytest.fixture
def logged_events(caplog):
    """() -> the events util.log_event has logged so far in the test, as dicts."""
    caplog.set_level(logging.INFO, logger="adselect")
    return lambda: [json.loads(r.getMessage()) for r in caplog.records if r.name == "adselect"]


def make_dataset(n_normal: int, n_anomaly: int, seed: int = 0, dim: int = 2, name: str = "toy"):
    """Normals near the origin, anomalies shifted far away."""
    rng = np.random.default_rng(seed)
    normals = rng.normal(0.0, 1.0, size=(n_normal, dim))
    anomalies = rng.normal(8.0, 1.0, size=(n_anomaly, dim))
    X = np.concatenate([normals, anomalies]) if n_anomaly else normals
    y = np.concatenate([np.zeros(n_normal, dtype=np.int8), np.ones(n_anomaly, dtype=np.int8)])
    perm = rng.permutation(len(X))
    return LabeledDataset(features=X[perm], labels=y[perm], name=name)

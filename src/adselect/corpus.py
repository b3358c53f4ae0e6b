"""Bundled one-class toy datasets so the pipeline runs out of the box.

Each generator draws a seeded low-dimensional dataset (d <= 6, within the
hypervolume estimator's comfort zone) with a clearly structured normal class
and a minority anomaly class placed off the normal support: far shells,
off-manifold offsets, or holes inside a curved manifold.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

from .dataset import LabeledDataset
from .errors import ConfigError
from .util import csv_text, rng_from, write_text


def _assemble(name: str, normals: np.ndarray, anomalies: np.ndarray, rng: np.random.Generator) -> LabeledDataset:
    X = np.concatenate([normals, anomalies], axis=0)
    y = np.concatenate([np.zeros(len(normals), dtype=np.int8), np.ones(len(anomalies), dtype=np.int8)])
    perm = rng.permutation(len(X))
    return LabeledDataset(features=X[perm], labels=y[perm], name=name)


def twin_blobs(seed: int = 0) -> LabeledDataset:
    """Two tight 2-d clusters; anomalies on a wide ring around both."""
    rng = rng_from(seed, "twin_blobs")
    a = rng.normal((-2.0, 0.0), 0.55, size=(130, 2))
    b = rng.normal((2.5, 1.0), 0.65, size=(130, 2))
    theta = rng.uniform(0, 2 * np.pi, size=36)
    ring = np.stack([7.5 * np.cos(theta), 7.5 * np.sin(theta)], axis=1)
    ring += rng.normal(0, 0.4, size=ring.shape)
    return _assemble("twin_blobs", np.concatenate([a, b]), ring, rng)


def halo(seed: int = 0) -> LabeledDataset:
    """Isotropic 3-d gaussian normals; anomalies on a distant shell."""
    rng = rng_from(seed, "halo")
    normals = rng.normal(0.0, 1.0, size=(270, 3))
    dirs = rng.normal(size=(34, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    shell = dirs * rng.uniform(5.0, 7.0, size=34)[:, None]
    return _assemble("halo", normals, shell, rng)


def ridge(seed: int = 0) -> LabeledDataset:
    """Strongly correlated 4-d normals; anomalies uniform in a wide box."""
    rng = rng_from(seed, "ridge")
    t = rng.normal(0.0, 2.0, size=(260, 1))
    direction = np.asarray([[1.0, 0.8, -0.6, 0.4]])
    normals = t * direction + rng.normal(0.0, 0.35, size=(260, 4))
    anomalies = rng.uniform(-6.0, 6.0, size=(40, 4))
    # keep anomalies off the ridge line
    proj = anomalies @ direction.T / np.sum(direction**2)
    dist = np.linalg.norm(anomalies - proj * direction, axis=1)
    anomalies = anomalies[dist > 2.0][:34]
    return _assemble("ridge", normals, anomalies, rng)


def crescent(seed: int = 0) -> LabeledDataset:
    """Normals on a 2-d arc; anomalies fill the hole the arc wraps around."""
    rng = rng_from(seed, "crescent")
    theta = rng.uniform(0.0, np.pi, size=250)
    arc = np.stack([4.0 * np.cos(theta), 4.0 * np.sin(theta)], axis=1)
    arc += rng.normal(0.0, 0.3, size=arc.shape)
    hole = rng.normal((0.0, 1.0), 0.5, size=(30, 2))
    return _assemble("crescent", arc, hole, rng)


def triplet(seed: int = 0) -> LabeledDataset:
    """Three 5-d blobs; anomalies uniform in the surrounding box."""
    rng = rng_from(seed, "triplet")
    centers = np.asarray(
        [[2.0, 0.0, -1.0, 0.0, 1.0], [-2.0, 1.0, 1.0, -1.0, 0.0], [0.0, -2.0, 0.0, 1.0, -1.0]]
    )
    blobs = [rng.normal(c, 0.5, size=(90, 5)) for c in centers]
    normals = np.concatenate(blobs)
    anomalies = rng.uniform(-6.0, 6.0, size=(64, 5))
    dists = np.min(
        np.linalg.norm(anomalies[:, None, :] - centers[None, :, :], axis=2), axis=1
    )
    anomalies = anomalies[dists > 3.0][:36]
    return _assemble("triplet", normals, anomalies, rng)


def thread(seed: int = 0) -> LabeledDataset:
    """Normals along a 1-d thread in 6-d; anomalies offset perpendicular to it."""
    rng = rng_from(seed, "thread")
    v = np.asarray([1.0, -0.5, 0.3, 0.8, -0.2, 0.6])
    v /= np.linalg.norm(v)
    t = rng.uniform(-3.0, 3.0, size=(250, 1))
    normals = t * v + rng.normal(0.0, 0.2, size=(250, 6))
    w = np.asarray([0.2, 1.0, 0.5, -0.7, 0.9, -0.3])
    w -= (w @ v) * v
    w /= np.linalg.norm(w)
    t2 = rng.uniform(-3.0, 3.0, size=(32, 1))
    anomalies = t2 * v + rng.uniform(2.5, 4.0, size=(32, 1)) * w
    anomalies += rng.normal(0.0, 0.2, size=anomalies.shape)
    return _assemble("thread", normals, anomalies, rng)


GENERATORS: dict[str, Callable[[int], LabeledDataset]] = {
    "twin_blobs": twin_blobs,
    "halo": halo,
    "ridge": ridge,
    "crescent": crescent,
    "triplet": triplet,
    "thread": thread,
}


def toy_corpus(seed: int = 0, names: list[str] | None = None) -> list[LabeledDataset]:
    chosen = names if names is not None else list(GENERATORS)
    unknown = set(chosen) - set(GENERATORS)
    if unknown:
        raise ConfigError(f"unknown corpus datasets {sorted(unknown)}; available: {list(GENERATORS)}")
    return [GENERATORS[name](seed) for name in chosen]


def write_corpus_csvs(out_dir: str, seed: int = 0, names: list[str] | None = None) -> list[str]:
    """Write each bundled dataset as a CSV (feature columns f0..fk, label)."""
    paths = []
    for ds in toy_corpus(seed=seed, names=names):
        path = os.path.join(out_dir, f"{ds.name}.csv")
        header = [f"f{j}" for j in range(ds.dim)] + ["label"]
        write_text(path, csv_text([header] + [[*x, int(y)] for x, y in zip(ds.features, ds.labels)]))
        paths.append(path)
    return paths

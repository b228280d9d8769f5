"""On-disk formats: the matrix container and key-value manifests.

Matrix files carry a 16-byte header (magic ``BSCAMAT1`` then two 32-bit
little-endian dimensions) followed by the row-major little-endian
float64 payload.  Manifests are plain ``key = value`` text; scalar
floats are written with 17 significant digits so they round-trip
exactly.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .core import equal_partition
from .errors import InvalidArgumentError

MAGIC = b"BSCAMAT1"
INSTANCE_MANIFEST = "instance.manifest"
RUN_MANIFEST = "run.manifest"


def write_matrix(path, matrix: np.ndarray) -> None:
    m = np.ascontiguousarray(np.asarray(matrix, dtype="<f8"))
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise InvalidArgumentError("only 1-D and 2-D arrays are stored")
    rows, cols = m.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(m.data)


def read_matrix(path) -> np.ndarray:
    """Read a matrix file straight into one preallocated array."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:8] != MAGIC:
            raise InvalidArgumentError(f"{path}: not a matrix file")
        rows, cols = struct.unpack("<II", header[8:])
        expected = rows * cols * 8
        payload = os.fstat(fh.fileno()).st_size - len(header)
        if payload == expected:
            matrix = np.empty((rows, cols), dtype="<f8")
            payload = fh.readinto(matrix)
    if payload != expected:
        raise InvalidArgumentError(
            f"{path}: payload holds {payload} bytes, expected {expected}")
    return matrix.astype(float, copy=False)


def format_scalar(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def write_manifest(path, entries: dict) -> None:
    lines = [f"{key} = {format_scalar(value)}" for key, value in entries.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path) -> dict[str, str]:
    entries: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"{path}: malformed line {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


# ---------------------------------------------------------------------------
# instance bundles
# ---------------------------------------------------------------------------

def write_anomaly_instance(directory, instance) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix(directory / "measurements.mat", instance.measurements)
    write_matrix(directory / "dictionary.mat", instance.dictionary)
    n, m, p = instance.shape
    entries = {
        "format": "bsca-instance-v1",
        "kind": "anomaly",
        "rows": n,
        "cols": m,
        "atoms": p,
        "rank": instance.rank,
        "ridge": float(instance.ridge),
        "sparse_gain": float(instance.sparse_gain),
        "seed": instance.seed if instance.seed is not None else 0,
        "matrix.measurements": "measurements.mat",
        "matrix.dictionary": "dictionary.mat",
    }
    if instance.density is not None:
        entries["density"] = float(instance.density)
    if instance.noise_var is not None:
        entries["noise_var"] = float(instance.noise_var)
    optional = {
        "true_left": instance.true_left,
        "true_right": instance.true_right,
        "true_sparse": instance.true_sparse,
    }
    for name, value in optional.items():
        if value is not None:
            write_matrix(directory / f"{name}.mat", value)
            entries[f"matrix.{name}"] = f"{name}.mat"
    manifest = directory / INSTANCE_MANIFEST
    write_manifest(manifest, entries)
    return manifest


def write_pr_instance(directory, instance) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix(directory / "sampling.mat", instance.sampling)
    write_matrix(directory / "intensities.mat", instance.intensities)
    entries = {
        "format": "bsca-instance-v1",
        "kind": "pr",
        "unknowns": instance.num_unknowns,
        "measurements": instance.sampling.shape[1],
        "blocks": instance.partition.num_blocks,
        "sparse_gain": float(instance.sparse_gain),
        "seed": instance.seed if instance.seed is not None else 0,
        "matrix.sampling": "sampling.mat",
        "matrix.intensities": "intensities.mat",
    }
    if instance.density is not None:
        entries["density"] = float(instance.density)
    if instance.signal is not None:
        write_matrix(directory / "signal.mat", instance.signal)
        entries["matrix.signal"] = "signal.mat"
    manifest = directory / INSTANCE_MANIFEST
    write_manifest(manifest, entries)
    return manifest


def read_instance(directory):
    """Load an instance bundle; the manifest's ``kind`` key dispatches."""
    from .anomaly import AnomalyInstance
    from .phase_retrieval import PhaseRetrievalInstance

    directory = Path(directory)
    manifest_path = directory / INSTANCE_MANIFEST
    if not manifest_path.is_file():
        raise InvalidArgumentError(f"{directory}: no {INSTANCE_MANIFEST} found")
    entries = read_manifest(manifest_path)
    kind = entries.get("kind")

    def matrix(key: str) -> np.ndarray:
        return read_matrix(directory / entries[f"matrix.{key}"])

    def optional(key: str):
        return matrix(key) if f"matrix.{key}" in entries else None

    if kind == "anomaly":
        truth = {name: optional(name)
                 for name in ("true_left", "true_right", "true_sparse")}
        return AnomalyInstance(
            measurements=matrix("measurements"),
            dictionary=matrix("dictionary"),
            ridge=float(entries["ridge"]),
            sparse_gain=float(entries["sparse_gain"]),
            rank=int(entries["rank"]),
            seed=int(entries["seed"]),
            density=float(entries["density"]) if "density" in entries else None,
            noise_var=float(entries["noise_var"]) if "noise_var" in entries else None,
            **truth)
    if kind == "pr":
        signal = optional("signal")
        unknowns = int(entries["unknowns"])
        blocks = int(entries["blocks"])
        return PhaseRetrievalInstance(
            sampling=matrix("sampling"),
            intensities=matrix("intensities").ravel(),
            sparse_gain=float(entries["sparse_gain"]),
            partition=equal_partition(unknowns, blocks),
            signal=signal.ravel() if signal is not None else None,
            seed=int(entries["seed"]),
            density=float(entries["density"]) if "density" in entries else None)
    raise InvalidArgumentError(f"{directory}: unknown instance kind {kind!r}")

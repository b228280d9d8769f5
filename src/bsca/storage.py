"""On-disk formats: the matrix container and key-value manifests.

Matrix files carry a 16-byte header (magic ``BSCAMAT1`` then two 32-bit
little-endian dimensions) followed by the row-major little-endian
float64 payload.  A read maps the payload read-only, so a read matrix
is a view of its file and costs no anonymous memory.  A file is never
written in place: it is written under a temporary name and then renamed
over the old one, so a mapping of the old file keeps its contents and
no reader sees a half-written file.  Manifests are plain ``key = value``
text; scalar floats are written with 17 significant digits so they
round-trip exactly.
"""

from __future__ import annotations

import mmap
import os
import struct
from pathlib import Path

import numpy as np

from .core import equal_partition
from .errors import InvalidArgumentError

MAGIC = b"BSCAMAT1"
INSTANCE_MANIFEST = "instance.manifest"
RUN_MANIFEST = "run.manifest"
_HEADER_BYTES = 16


def _temporary(path: Path) -> Path:
    return path.with_name(f".{path.name}.{os.urandom(8).hex()}")


def _write_atomically(path, *chunks) -> None:
    """Write ``chunks`` into a new file beside ``path``, then rename that
    over ``path``; a failed write leaves the old file as it was."""
    path = Path(path)
    temporary = _temporary(path)
    try:
        with open(temporary, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _header(rows: int, cols: int) -> bytes:
    return MAGIC + struct.pack("<II", rows, cols)


def _is_drawn_for(matrix: np.ndarray, path: Path) -> bool:
    """Whether ``matrix`` is the whole mapped payload of a file that
    ``map_pr_sampling`` made to become ``path`` and that is not yet in
    place."""
    if not (isinstance(matrix, np.memmap) and isinstance(matrix.base, mmap.mmap)
            and matrix.offset == _HEADER_BYTES):
        return False
    drawn = Path(matrix.filename)
    return (drawn.name.startswith(f".{path.name}.") and drawn.is_file()
            and os.path.samefile(drawn.parent, path.parent))


def write_matrix(path, matrix: np.ndarray) -> None:
    """Write a matrix file; the mapping of ``map_pr_sampling`` is already
    written, and its file is renamed into place instead."""
    path = Path(path)
    if _is_drawn_for(matrix, path):
        os.replace(matrix.filename, path)
        return
    m = np.ascontiguousarray(np.asarray(matrix, dtype="<f8"))
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise InvalidArgumentError("only 1-D and 2-D arrays are stored")
    _write_atomically(path, _header(*m.shape), m.data)


def read_matrix(path) -> np.ndarray:
    """Map a matrix file's payload read-only, after checking its header
    and size.  The array is a view of the file: writing to it raises
    ValueError, and it stays valid after the file is deleted or
    replaced.  An empty matrix has no payload to map and comes back as
    a read-only empty array.

    The array holds one open file descriptor until it and every view of
    it are dropped, since ``mmap`` keeps a duplicate of the file's.  A
    bundle read with its truth holds 3 (phase retrieval: sampling,
    intensities, signal) or 5 (low-rank + sparse), so about 340 live
    phase-retrieval instances take the usual limit of 1024."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_BYTES)
        if len(header) != _HEADER_BYTES or header[:8] != MAGIC:
            raise InvalidArgumentError(f"{path}: not a matrix file")
        rows, cols = struct.unpack("<II", header[8:])
        expected = rows * cols * 8
        payload = os.fstat(fh.fileno()).st_size - _HEADER_BYTES
        if payload != expected:
            raise InvalidArgumentError(
                f"{path}: payload holds {payload} bytes, expected {expected}")
        if expected == 0:
            matrix = np.empty((rows, cols))
            matrix.flags.writeable = False
            return matrix
        matrix = np.memmap(fh, dtype="<f8", mode="r", offset=_HEADER_BYTES,
                           shape=(rows, cols))
    return matrix.view(np.ndarray)


def map_pr_sampling(directory, unknowns: int, measurements: int) -> np.memmap:
    """A new unknowns x measurements matrix file in ``directory``, mapped
    writable, for ``generate_pr_instance`` to draw into.  The file has a
    temporary name until ``write_pr_instance`` renames it to the bundle's
    ``sampling.mat``, so a failed or unfinished draw leaves the bundle as
    it was; the caller removes the file (``filename``) if the draw
    fails.  Neither this nor the draw holds the matrix in anonymous
    memory."""
    if unknowns < 1 or measurements < 1:
        raise InvalidArgumentError("dimensions must be positive")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    drawn = _temporary(directory / "sampling.mat")
    try:
        with open(drawn, "xb") as fh:
            fh.write(_header(unknowns, measurements))
            size = _HEADER_BYTES + unknowns * measurements * 8
            # reserve the blocks where the system can (macOS cannot): a
            # full disk then raises here, not as a SIGBUS when the draw
            # first writes a page
            if hasattr(os, "posix_fallocate"):
                os.posix_fallocate(fh.fileno(), 0, size)
            else:
                fh.truncate(size)
        return np.memmap(drawn, dtype="<f8", mode="r+", offset=_HEADER_BYTES,
                         shape=(unknowns, measurements))
    except BaseException:
        drawn.unlink(missing_ok=True)
        raise


def format_scalar(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def write_manifest(path, entries: dict) -> None:
    lines = [f"{key} = {format_scalar(value)}" for key, value in entries.items()]
    _write_atomically(path, ("\n".join(lines) + "\n").encode("utf-8"))


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
    n, m, p = instance.shape
    return _write_bundle(directory, instance, "anomaly", {
        "rows": n, "cols": m, "atoms": p, "rank": instance.rank,
        "ridge": instance.ridge, "noise_var": instance.noise_var,
    }, ("measurements", "dictionary", "true_left", "true_right", "true_sparse"))


def write_pr_instance(directory, instance) -> Path:
    """Write a phase-retrieval bundle.  It records the block count alone,
    from which ``read_instance`` rebuilds an ``equal_partition``, so any
    other partition is refused before anything is written."""
    sizes = instance.partition.block_sizes
    if equal_partition(instance.num_unknowns, len(sizes)).block_sizes != sizes:
        raise InvalidArgumentError(f"a bundle keeps only equal partitions, got {sizes}")
    return _write_bundle(directory, instance, "pr", {
        "unknowns": instance.num_unknowns,
        "measurements": instance.sampling.shape[1],
        "blocks": len(sizes),
    }, ("sampling", "intensities", "signal"))


def _write_bundle(directory, instance, kind: str, sizes: dict,
                  matrices: tuple[str, ...]) -> Path:
    """Write an instance bundle: each of the instance's ``matrices`` that
    is not None as ``<name>.mat``, then its manifest with ``sizes``, the
    scalars both kinds share and a ``matrix.<name>`` entry per file.  A
    scalar that is None is left out, and a seed of None is 0; scalars
    other than counts and names are written as floats."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = {"format": "bsca-instance-v1", "kind": kind, **sizes,
               "sparse_gain": instance.sparse_gain, "seed": instance.seed or 0,
               "density": instance.density}
    entries = {key: value if isinstance(value, (int, str)) else float(value)
               for key, value in entries.items() if value is not None}
    for name in matrices:
        value = getattr(instance, name)
        if value is not None:
            write_matrix(directory / f"{name}.mat", value)
            entries[f"matrix.{name}"] = f"{name}.mat"
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

    def field(key: str, parse=str):
        try:
            return parse(entries[key])
        except KeyError:
            raise InvalidArgumentError(f"{manifest_path}: missing key {key!r}") from None
        except ValueError:
            raise InvalidArgumentError(
                f"{manifest_path}: key {key!r} has bad value {entries[key]!r}") from None

    def matrix(key: str) -> np.ndarray:
        return read_matrix(directory / field(f"matrix.{key}"))

    def optional(key: str):
        return matrix(key) if f"matrix.{key}" in entries else None

    if kind == "anomaly":
        truth = {name: optional(name)
                 for name in ("true_left", "true_right", "true_sparse")}
        return AnomalyInstance(
            measurements=matrix("measurements"),
            dictionary=matrix("dictionary"),
            ridge=field("ridge", float),
            sparse_gain=field("sparse_gain", float),
            rank=field("rank", int),
            seed=field("seed", int),
            density=field("density", float) if "density" in entries else None,
            noise_var=field("noise_var", float) if "noise_var" in entries else None,
            **truth)
    if kind == "pr":
        signal = optional("signal")
        return PhaseRetrievalInstance(
            sampling=matrix("sampling"),
            intensities=matrix("intensities").ravel(),
            sparse_gain=field("sparse_gain", float),
            partition=equal_partition(field("unknowns", int), field("blocks", int)),
            signal=signal.ravel() if signal is not None else None,
            seed=field("seed", int),
            density=field("density", float) if "density" in entries else None)
    raise InvalidArgumentError(f"{directory}: unknown instance kind {kind!r}")

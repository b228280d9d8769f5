import struct

import numpy as np
import pytest

from bsca.anomaly import generate_anomaly_instance
from bsca.errors import InvalidArgumentError
from bsca.phase_retrieval import generate_pr_instance
from bsca.storage import (
    INSTANCE_MANIFEST,
    MAGIC,
    read_instance,
    read_manifest,
    read_matrix,
    write_anomaly_instance,
    write_manifest,
    write_matrix,
    write_pr_instance,
)


class TestMatrixFormat:
    def test_header_layout(self, tmp_path, rng):
        m = rng.standard_normal((3, 5))
        path = tmp_path / "m.mat"
        write_matrix(path, m)
        raw = path.read_bytes()
        assert raw[:8] == MAGIC
        assert struct.unpack("<II", raw[8:16]) == (3, 5)
        assert len(raw) == 16 + 3 * 5 * 8
        # row-major little-endian payload
        assert np.frombuffer(raw[16:], dtype="<f8")[1] == m[0, 1]

    def test_roundtrip(self, tmp_path, rng):
        m = rng.standard_normal((7, 2))
        write_matrix(tmp_path / "m.mat", m)
        assert np.array_equal(read_matrix(tmp_path / "m.mat"), m)

    def test_vector_becomes_column(self, tmp_path):
        write_matrix(tmp_path / "v.mat", np.array([1.0, 2.0]))
        got = read_matrix(tmp_path / "v.mat")
        assert got.shape == (2, 1)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_bytes(b"NOTMAGIC" + struct.pack("<II", 1, 1) + b"\x00" * 8)
        with pytest.raises(InvalidArgumentError):
            read_matrix(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.mat"
        path.write_bytes(MAGIC + struct.pack("<II", 2, 2) + b"\x00" * 8)
        with pytest.raises(InvalidArgumentError):
            read_matrix(path)

    def test_overlong_payload_rejected(self, tmp_path):
        path = tmp_path / "long.mat"
        path.write_bytes(MAGIC + struct.pack("<II", 1, 2) + b"\x00" * 24)
        with pytest.raises(InvalidArgumentError, match="24 bytes, expected 16"):
            read_matrix(path)


class TestManifest:
    def test_roundtrip_with_exact_floats(self, tmp_path):
        path = tmp_path / "m.manifest"
        value = 0.1 + 0.2
        write_manifest(path, {"kind": "pr", "gain": value, "seed": 3})
        got = read_manifest(path)
        assert got["kind"] == "pr"
        assert float(got["gain"]) == value
        assert int(got["seed"]) == 3

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "m.manifest"
        path.write_text("# comment\n\nkey = value\n")
        assert read_manifest(path) == {"key": "value"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "m.manifest"
        path.write_text("no equals sign\n")
        with pytest.raises(InvalidArgumentError):
            read_manifest(path)


class TestInstanceBundles:
    def test_anomaly_roundtrip(self, tmp_path):
        inst = generate_anomaly_instance(6, 7, 5, rank=2, density=0.2, seed=12)
        write_anomaly_instance(tmp_path / "inst", inst)
        assert (tmp_path / "inst" / INSTANCE_MANIFEST).is_file()
        got = read_instance(tmp_path / "inst")
        assert np.array_equal(got.measurements, inst.measurements)
        assert np.array_equal(got.dictionary, inst.dictionary)
        assert got.ridge == inst.ridge
        assert got.sparse_gain == inst.sparse_gain
        assert got.rank == inst.rank
        assert np.array_equal(got.true_sparse, inst.true_sparse)

    def test_pr_roundtrip(self, tmp_path):
        inst = generate_pr_instance(12, 9, density=0.2, num_blocks=3, seed=4)
        write_pr_instance(tmp_path / "inst", inst)
        got = read_instance(tmp_path / "inst")
        assert np.array_equal(got.sampling, inst.sampling)
        assert np.array_equal(got.intensities, inst.intensities)
        assert got.sparse_gain == inst.sparse_gain
        assert got.partition.block_sizes == inst.partition.block_sizes
        assert np.array_equal(got.signal, inst.signal)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            read_instance(tmp_path)

import dataclasses
import errno
import os
import shutil
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from bsca import storage
from bsca.anomaly import generate_anomaly_instance, run_anomaly_bsca
from bsca.core import SolverConfig, make_partition
from bsca.errors import InvalidArgumentError
from bsca.phase_retrieval import generate_pr_instance, run_phase_retrieval
from bsca.storage import (
    INSTANCE_MANIFEST,
    MAGIC,
    map_pr_sampling,
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

    @pytest.mark.parametrize("payload, message", [(8, "8 bytes, expected 32"),
                                                  (40, "40 bytes, expected 32")])
    def test_a_wrong_payload_size_is_rejected_before_mapping(self, tmp_path, monkeypatch,
                                                             payload, message):
        path = tmp_path / "m.mat"
        path.write_bytes(MAGIC + struct.pack("<II", 2, 2) + b"\x00" * payload)

        def no_mapping(*args, **kwargs):
            raise AssertionError("mapped a file whose size is wrong")

        monkeypatch.setattr(np, "memmap", no_mapping)
        with pytest.raises(InvalidArgumentError, match=message):
            read_matrix(path)

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
    def test_an_empty_matrix_round_trips(self, tmp_path, shape):
        # a zero-length payload cannot be mapped
        write_matrix(tmp_path / "e.mat", np.empty(shape))
        assert (tmp_path / "e.mat").stat().st_size == 16
        got = read_matrix(tmp_path / "e.mat")
        assert got.shape == shape and got.dtype == np.float64
        assert not got.flags.writeable

    def test_a_read_matrix_is_a_read_only_view_of_its_file(self, tmp_path, rng):
        m = rng.standard_normal((3, 4))
        write_matrix(tmp_path / "m.mat", m)
        got = read_matrix(tmp_path / "m.mat")
        assert type(got) is np.ndarray and not got.flags.owndata
        with pytest.raises(ValueError, match="read-only"):
            got[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            got *= 2.0
        assert np.array_equal(read_matrix(tmp_path / "m.mat"), m)

    def test_a_write_leaves_no_temporary_file(self, tmp_path, rng):
        write_matrix(tmp_path / "m.mat", rng.standard_normal((2, 2)))
        write_matrix(tmp_path / "m.mat", rng.standard_normal((3, 2)))
        write_manifest(tmp_path / "m.manifest", {"kind": "pr"})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.manifest", "m.mat"]
        assert read_matrix(tmp_path / "m.mat").shape == (3, 2)


    def test_a_failed_write_removes_its_temporary_file(self, tmp_path):
        path = tmp_path / "m.mat"
        path.write_bytes(b"old")
        with pytest.raises(TypeError):
            storage._write_atomically(path, b"new", None)
        assert os.listdir(tmp_path) == ["m.mat"]
        assert path.read_bytes() == b"old"

    def test_only_1d_and_2d_arrays_are_stored(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="1-D and 2-D"):
            write_matrix(tmp_path / "m.mat", np.zeros((2, 2, 2)))
        assert os.listdir(tmp_path) == []


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
        # a bundle keeps the block count alone, so an uneven partition,
        # which would read back as (6, 6), is refused before any write
        uneven = dataclasses.replace(inst, partition=make_partition([2, 10]))
        with pytest.raises(InvalidArgumentError, match=r"equal partitions.*\(2, 10\)"):
            write_pr_instance(tmp_path / "uneven", uneven)
        assert not (tmp_path / "uneven").exists()

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            read_instance(tmp_path)

    def test_missing_key_names_file_and_key(self, tmp_path):
        inst = generate_pr_instance(12, 9, density=0.2, num_blocks=3, seed=4)
        manifest = write_pr_instance(tmp_path / "inst", inst)
        entries = read_manifest(manifest)
        del entries["sparse_gain"]
        write_manifest(manifest, entries)
        with pytest.raises(InvalidArgumentError,
                           match=r"instance\.manifest: missing key 'sparse_gain'"):
            read_instance(tmp_path / "inst")

    def test_missing_matrix_key_rejected(self, tmp_path):
        inst = generate_anomaly_instance(6, 7, 5, rank=2, density=0.2, seed=12)
        manifest = write_anomaly_instance(tmp_path / "inst", inst)
        entries = read_manifest(manifest)
        del entries["matrix.dictionary"]
        write_manifest(manifest, entries)
        with pytest.raises(InvalidArgumentError, match="'matrix.dictionary'"):
            read_instance(tmp_path / "inst")

    @pytest.mark.parametrize("key, value", [("blocks", "x"), ("sparse_gain", "lots"),
                                            ("seed", "1.5"), ("density", "")])
    def test_bad_value_names_file_and_key(self, tmp_path, key, value):
        inst = generate_pr_instance(12, 9, density=0.2, num_blocks=3, seed=4)
        manifest = write_pr_instance(tmp_path / "inst", inst)
        entries = read_manifest(manifest)
        entries[key] = value
        write_manifest(manifest, entries)
        with pytest.raises(InvalidArgumentError,
                           match=rf"instance\.manifest: key '{key}' has bad value"):
            read_instance(tmp_path / "inst")

    def test_an_unknown_kind_is_rejected(self, tmp_path):
        inst = generate_pr_instance(12, 9, density=0.2, num_blocks=3, seed=4)
        manifest = write_pr_instance(tmp_path / "inst", inst)
        entries = read_manifest(manifest)
        entries["kind"] = "graph"
        write_manifest(manifest, entries)
        with pytest.raises(InvalidArgumentError, match="unknown instance kind 'graph'"):
            read_instance(tmp_path / "inst")


class TestMappedBundles:
    def test_every_array_of_a_read_instance_is_read_only(self, tmp_path):
        write_pr_instance(tmp_path / "pr", generate_pr_instance(12, 9, density=0.2, seed=4))
        write_anomaly_instance(tmp_path / "an", generate_anomaly_instance(
            6, 7, 5, rank=2, density=0.2, seed=12))
        for inst in (read_instance(tmp_path / "pr"), read_instance(tmp_path / "an")):
            arrays = [v for v in vars(inst).values() if isinstance(v, np.ndarray)]
            assert len(arrays) >= 3
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array.flat[0] = 0.0

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts the entries of /proc/self/fd")
    def test_each_mapped_array_holds_one_descriptor_until_it_is_dropped(self, tmp_path):
        # about 340 live phase-retrieval instances take the usual limit of
        # 1024 open descriptors
        write_pr_instance(tmp_path / "pr", generate_pr_instance(12, 9, density=0.2, seed=4))
        write_anomaly_instance(tmp_path / "an", generate_anomaly_instance(
            6, 7, 5, rank=2, density=0.2, seed=12))

        def open_descriptors():
            return len(os.listdir("/proc/self/fd"))

        for bundle, arrays in (("pr", 3), ("an", 5)):
            before = open_descriptors()
            read = [read_instance(tmp_path / bundle) for _ in range(10)]
            assert open_descriptors() - before == 10 * arrays
            del read
            assert open_descriptors() == before

    def test_an_instance_solves_after_its_bundle_is_deleted(self, tmp_path):
        cfg = SolverConfig(max_outer_iterations=12, inner_iterations=3)
        pr = generate_pr_instance(24, 60, density=0.1, num_blocks=3, seed=12)
        an = generate_anomaly_instance(6, 7, 5, rank=2, density=0.2, seed=12)
        write_pr_instance(tmp_path / "pr", pr)
        write_anomaly_instance(tmp_path / "an", an)
        read_pr, read_an = read_instance(tmp_path / "pr"), read_instance(tmp_path / "an")
        shutil.rmtree(tmp_path / "pr")
        shutil.rmtree(tmp_path / "an")
        for run, generated, read in ((run_phase_retrieval, pr, read_pr),
                                     (run_anomaly_bsca, an, read_an)):
            expected, got = run(generated, cfg), run(read, cfg)
            assert np.array_equal(got.objectives, expected.objectives)
            assert np.array_equal(got.final_point.values, expected.final_point.values)

    def test_a_bundle_drawn_into_its_mapped_file_writes_the_matrix_once(self, tmp_path):
        sampling = map_pr_sampling(tmp_path / "mapped", 30, 20)
        inode = os.stat(sampling.filename).st_ino
        write_pr_instance(tmp_path / "mapped", generate_pr_instance(
            30, 20, density=0.1, num_blocks=2, seed=4, out=sampling))
        assert os.stat(tmp_path / "mapped" / "sampling.mat").st_ino == inode
        write_pr_instance(tmp_path / "memory", generate_pr_instance(
            30, 20, density=0.1, num_blocks=2, seed=4))
        names = ["instance.manifest", "intensities.mat", "sampling.mat", "signal.mat"]
        for folder in ("mapped", "memory"):
            assert sorted(p.name for p in (tmp_path / folder).iterdir()) == names
        for name in names:
            assert ((tmp_path / "mapped" / name).read_bytes()
                    == (tmp_path / "memory" / name).read_bytes()), name

    def test_an_unfinished_draw_leaves_the_bundle_as_it_was(self, tmp_path):
        old = generate_pr_instance(12, 9, density=0.2, seed=4)
        write_pr_instance(tmp_path, old)
        sampling = map_pr_sampling(tmp_path, 12, 9)
        sampling[:] = 1.0
        assert np.array_equal(read_instance(tmp_path).sampling, old.sampling)

    @pytest.mark.parametrize("reserve", [True, False])
    def test_map_pr_sampling_maps_a_matrix_file_of_the_given_shape(self, tmp_path,
                                                                  monkeypatch, reserve):
        if not reserve:
            monkeypatch.delattr(os, "posix_fallocate", raising=False)
        sampling = map_pr_sampling(tmp_path, 3, 5)
        assert sampling.shape == (3, 5) and not sampling.any()
        sampling[:] = 2.0
        assert np.array_equal(read_matrix(sampling.filename), np.full((3, 5), 2.0))

    def test_a_failed_reservation_leaves_no_file(self, tmp_path, monkeypatch):
        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "posix_fallocate", full, raising=False)
        with pytest.raises(OSError, match="No space"):
            map_pr_sampling(tmp_path, 3, 5)
        assert os.listdir(tmp_path) == []

    def test_map_pr_sampling_rejects_an_empty_matrix(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="positive"):
            map_pr_sampling(tmp_path, 0, 5)

    def test_rewriting_a_bundle_in_place_keeps_the_instance_read_from_it(self, tmp_path):
        # the rewrite replaces the files its own input maps; writing over
        # them in place would truncate the mapping (SIGBUS on the next
        # read), so this runs in a child
        script = textwrap.dedent(f"""
            import numpy as np
            from bsca.anomaly import generate_anomaly_instance, run_anomaly_bsca
            from bsca.core import SolverConfig
            from bsca.phase_retrieval import generate_pr_instance, run_phase_retrieval
            from bsca.storage import read_instance, write_anomaly_instance, write_pr_instance
            cfg = SolverConfig(max_outer_iterations=12, inner_iterations=3)
            cases = [
                (write_pr_instance, run_phase_retrieval,
                 generate_pr_instance(24, 60, density=0.1, num_blocks=3, seed=12)),
                (write_anomaly_instance, run_anomaly_bsca,
                 generate_anomaly_instance(6, 7, 5, rank=2, density=0.2, seed=12)),
            ]
            for i, (write, run, generated) in enumerate(cases):
                bundle = {str(tmp_path)!r} + f"/bundle{{i}}"
                write(bundle, generated)
                first = read_instance(bundle)
                write(bundle, first)
                write(bundle, read_instance(bundle))
                expected, got = run(generated, cfg), run(first, cfg)
                assert np.array_equal(got.objectives, expected.objectives)
                assert np.array_equal(got.final_point.values, expected.final_point.values)
                assert np.array_equal(run(read_instance(bundle), cfg).objectives,
                                      expected.objectives)
            print("same traces")
            """)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "same traces"

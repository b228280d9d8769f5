import csv
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bsca import phase_retrieval
from bsca.cli import BLAS_THREAD_VARS, main
from bsca.errors import BscaError
from bsca.phase_retrieval import PhaseProducts
from bsca.storage import INSTANCE_MANIFEST, RUN_MANIFEST, read_manifest, write_manifest


def read_trace(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return rows


def deterministic_columns(path):
    lines = Path(path).read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


@pytest.fixture
def pr_dir(tmp_path):
    out = tmp_path / "pr"
    assert main(["generate", "pr", "--I", "40", "--N", "30",
                 "--density", "0.05", "--seed", "7", "--out", str(out)]) == 0
    return out


@pytest.fixture
def anomaly_dir(tmp_path):
    out = tmp_path / "anomaly"
    assert main(["generate", "anomaly", "--N", "12", "--K", "10", "--I", "8",
                 "--rho", "2", "--seed", "1", "--out", str(out)]) == 0
    return out


class TestGenerate:
    def test_pr_bundle_contents(self, pr_dir):
        assert (pr_dir / "sampling.mat").is_file()
        assert (pr_dir / "intensities.mat").is_file()
        assert (pr_dir / "instance.manifest").is_file()
        manifest = read_manifest(pr_dir / RUN_MANIFEST)
        assert manifest["command"] == "generate"
        assert manifest["param.seed"] == "7"

    def test_anomaly_bundle_contents(self, anomaly_dir):
        assert (anomaly_dir / "measurements.mat").is_file()
        assert (anomaly_dir / "dictionary.mat").is_file()

    def test_default_seed_recorded(self, tmp_path):
        out = tmp_path / "x"
        assert main(["generate", "pr", "--I", "10", "--N", "8",
                     "--out", str(out)]) == 0
        manifest = read_manifest(out / RUN_MANIFEST)
        assert manifest["param.seed"] == "0"

    def test_missing_required_dimension(self, tmp_path):
        assert main(["generate", "anomaly", "--N", "5",
                     "--out", str(tmp_path / "y")]) == 2

    @pytest.mark.parametrize("given, missing", [(["--I", "10"], "--N"),
                                                (["--N", "8"], "--I")])
    def test_a_pr_bundle_needs_both_dimensions(self, tmp_path, capsys, given, missing):
        out = tmp_path / "y"
        assert main(["generate", "pr", *given, "--out", str(out)]) == 2
        assert f"generate pr requires {missing}" in capsys.readouterr().err
        assert not out.exists()

    def test_a_failed_pr_draw_leaves_the_bundle_as_it_was(self, pr_dir, tmp_path,
                                                           monkeypatch):
        # the draw fails after the mapped file is made: a solver error
        def failed_draw(rng, out):
            raise BscaError("the draw failed")

        monkeypatch.setattr(phase_retrieval, "_draw_unit_columns", failed_draw)
        bundle = tmp_path / "copy"
        shutil.copytree(pr_dir, bundle)
        before = {p.name: p.read_bytes() for p in bundle.iterdir()}
        assert main(["generate", "pr", "--I", "10", "--N", "8",
                     "--out", str(bundle)]) == 3
        assert {p.name: p.read_bytes() for p in bundle.iterdir()} == before

    @pytest.mark.parametrize("argv", [
        ["pr", "--I", "10", "--N", "8", "--blocks", "0"],
        ["pr", "--I", "10", "--N", "8", "--blocks", "20"],
        ["pr", "--I", "10", "--N", "8", "--density", "2"],
        ["pr", "--I", "0", "--N", "8"],
        ["anomaly", "--N", "5", "--K", "6", "--I", "4", "--rho", "9"],
        ["anomaly", "--N", "5", "--K", "6", "--I", "4", "--rho", "2", "--density", "0"],
    ], ids=" ".join)
    def test_settings_the_generators_reject_are_usage_errors_that_write_nothing(
            self, tmp_path, capsys, argv):
        out = tmp_path / "bundle"
        assert main(["generate", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()


class TestSolve:
    def test_pr_solve_monotone_trace(self, pr_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["solve", str(pr_dir), "--algorithm", "bsca",
                     "--blocks", "2", "--rule", "cyclic",
                     "--max-iters", "60", "--out", str(out)])
        assert code == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert summary.startswith("final_objective=")
        assert "iters=" in summary and "seconds=" in summary
        rows = read_trace(out / "trace.csv")
        objs = np.array([float(r["objective"]) for r in rows])
        assert np.all(np.diff(objs) <= 0.0)
        manifest = read_manifest(out / RUN_MANIFEST)
        assert manifest["algorithm"] == "bsca"

    def test_anomaly_solve(self, anomaly_dir, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", str(anomaly_dir), "--algorithm", "bsca",
                     "--max-iters", "30", "--out", str(out)]) == 0
        rows = read_trace(out / "trace.csv")
        assert {r["block"] for r in rows} <= {"-1", "0", "1", "2"}

    @pytest.mark.parametrize("algorithm", ["parallel-sca", "bgd"])
    def test_other_algorithms_run_on_both_kinds(self, algorithm, pr_dir,
                                                anomaly_dir, tmp_path):
        assert main(["solve", str(pr_dir), "--algorithm", algorithm,
                     "--max-iters", "12",
                     "--out", str(tmp_path / ("p" + algorithm))]) == 0
        assert main(["solve", str(anomaly_dir), "--algorithm", algorithm,
                     "--max-iters", "12",
                     "--out", str(tmp_path / ("a" + algorithm))]) == 0

    def test_inexact_bsca_is_bsca_on_both_kinds(self, pr_dir, anomaly_dir, tmp_path,
                                                 capsys):
        # solve no longer takes the alias, but a manifest that names it,
        # as older solves recorded them, reproduces as bsca
        for instance in (pr_dir, anomaly_dir):
            out = tmp_path / instance.name
            assert main(["solve", str(instance), "--algorithm", "inexact-bsca",
                         "--out", str(out)]) == 2
            assert main(["solve", str(instance), "--algorithm", "bsca",
                         "--max-iters", "12", "--out", str(out)]) == 0
            manifest = read_manifest(out / RUN_MANIFEST)
            manifest["algorithm"] = "inexact-bsca"
            write_manifest(out / RUN_MANIFEST, manifest)
            capsys.readouterr()
            assert main(["reproduce", str(out / RUN_MANIFEST)]) == 0
            assert "outputs match" in capsys.readouterr().out
            # so does a bench whose variants file names it
            variants = tmp_path / f"{instance.name}.txt"
            variants.write_text("name=old algorithm=inexact-bsca max-iters=12\n"
                                "name=new algorithm=bsca max-iters=12\n")
            bench = tmp_path / f"{instance.name}-bench"
            assert main(["bench", str(instance), "--variants", str(variants),
                         "--out", str(bench)]) == 0
            assert (deterministic_columns(bench / "old.trace.csv")
                    == deterministic_columns(bench / "new.trace.csv"))

    def test_bpgd_rejects_blocks(self, pr_dir, tmp_path, capsys):
        code = main(["solve", str(pr_dir), "--algorithm", "bpgd",
                     "--blocks", "2", "--out", str(tmp_path / "r")])
        assert code == 2
        assert "block updates" in capsys.readouterr().err

    def test_bpgd_rejects_anomaly(self, anomaly_dir, tmp_path):
        assert main(["solve", str(anomaly_dir), "--algorithm", "bpgd",
                     "--out", str(tmp_path / "r")]) == 2

    def test_anomaly_rejects_blocks_flag(self, anomaly_dir, tmp_path):
        assert main(["solve", str(anomaly_dir), "--algorithm", "bsca",
                     "--blocks", "4", "--out", str(tmp_path / "r")]) == 2

    def test_unreadable_path(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope"), "--algorithm", "bsca",
                     "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("key, value", [("sparse_gain", None), ("blocks", "x")])
    def test_malformed_instance_manifest_exits_3(self, pr_dir, tmp_path, capsys,
                                                 key, value):
        # like a corrupt matrix file: one error line, no traceback
        manifest = pr_dir / INSTANCE_MANIFEST
        entries = read_manifest(manifest)
        if value is None:
            del entries[key]
        else:
            entries[key] = value
        write_manifest(manifest, entries)
        assert main(["solve", str(pr_dir), "--algorithm", "bsca",
                     "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"{key!r}" in err[0]

    @pytest.mark.parametrize("key, value", [
        ("max-iters", "-1"), ("tol", "-1"), ("inner-iters", "0"), ("c", "0"),
        ("alpha", "1.5"), ("blocks", "41")])
    def test_settings_the_solver_rejects_are_usage_errors(self, pr_dir, tmp_path,
                                                          capsys, key, value):
        # pr_dir has 40 unknowns, so 41 blocks cannot split them
        assert main(["solve", str(pr_dir), "--algorithm", "bsca", f"--{key}", value,
                     "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        # in bench the setting fails its variant alone
        variants = tmp_path / "variants.txt"
        variants.write_text(f"name=ok algorithm=bsca max-iters=4\n"
                            f"name=bad algorithm=bsca {key}={value}\n")
        out = tmp_path / "bench"
        assert main(["bench", str(pr_dir), "--variants", str(variants),
                     "--out", str(out)]) == 0
        manifest = read_manifest(out / RUN_MANIFEST)
        assert "output.trace.ok" in manifest and "failed.bad" in manifest

    def test_pr_parallel_sca_certifies_zero_blocks(self, tmp_path, monkeypatch):
        # the manifest gate's instance and its --blocks 3 run: the joint
        # step runs the block solver of bsca, whose working-set visit skips
        # a zero block that its reference certifies, at no pass over A_k
        inst = tmp_path / "pr"
        assert main(["generate", "pr", "--I", "400", "--N", "1000", "--density",
                     "0.01", "--seed", "7", "--out", str(inst)]) == 0
        honest = phase_retrieval._working_set_visit
        note = PhaseProducts.note_model
        noted, zero_visits = [], []

        def counted_note(products, *args):
            noted.append(args[0])
            return note(products, *args)

        def spied(problem, x, k, config):
            before = len(noted)
            solution = honest(problem, x, k, config)
            if solution is not None and not problem.block_of(x, k).any():
                zero_visits.append((len(noted) == before, solution.minimizer.any()))
            return solution

        def solve(out):
            assert main(["solve", str(inst), "--algorithm", "parallel-sca",
                         "--blocks", "3", "--out", str(out)]) == 0
            return deterministic_columns(out / "trace.csv")

        monkeypatch.setattr(PhaseProducts, "note_model", counted_note)
        monkeypatch.setattr(phase_retrieval, "_working_set_visit", spied)
        certified = solve(tmp_path / "certified")
        # 8 of the 48 visits, 14 of them at a zero block: a skip, no pass
        assert (True, False) in zero_visits
        # with no reference kept, every zero block forms its exact gradient
        monkeypatch.setattr(PhaseProducts, "note_model", lambda *args: None)
        assert solve(tmp_path / "modelled") == certified

    def test_bad_flag_exits_2(self, pr_dir, tmp_path):
        assert main(["solve", str(pr_dir), "--algorithm", "bogus",
                     "--out", str(tmp_path / "r")]) == 2

    def test_armijo_line_search(self, pr_dir, tmp_path):
        assert main(["solve", str(pr_dir), "--algorithm", "bsca",
                     "--line-search", "armijo", "--alpha", "0.2",
                     "--beta", "0.5", "--max-iters", "20",
                     "--out", str(tmp_path / "r")]) == 0

    def test_bpgd_with_discounted_constant(self, pr_dir, tmp_path):
        out = tmp_path / "r"
        assert main(["solve", str(pr_dir), "--algorithm", "bpgd",
                     "--discount", "1e-4", "--max-iters", "50",
                     "--out", str(out)]) == 0
        rows = read_trace(out / "trace.csv")
        objs = np.array([float(r["objective"]) for r in rows])
        assert np.all(np.diff(objs) <= 0.0)

    def test_config_file_with_flag_precedence(self, pr_dir, tmp_path):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("max-iters = 5\nseed = 3\n")
        out = tmp_path / "r"
        assert main(["solve", str(pr_dir), "--algorithm", "bsca",
                     "--config", str(cfg), "--max-iters", "8",
                     "--out", str(out)]) == 0
        manifest = read_manifest(out / RUN_MANIFEST)
        assert manifest["param.max_iters"] == "8"    # flag wins
        assert manifest["param.seed"] == "3"         # file beats default

    @pytest.mark.parametrize("line", ["rule = zigzag", "inner-iters = 2.5",
                                      "curvature = 1", "max-iters 5"])
    def test_bad_config_entry_exits_2(self, pr_dir, tmp_path, line, capsys):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text(line + "\n")
        assert main(["solve", str(pr_dir), "--algorithm", "bsca",
                     "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "config:" in err[0]

    def test_deterministic_rerun_bit_identical(self, pr_dir, tmp_path):
        args = ["solve", str(pr_dir), "--algorithm", "bsca", "--blocks", "2",
                "--rule", "random", "--seed", "11", "--max-iters", "40"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (deterministic_columns(tmp_path / "a" / "trace.csv")
                == deterministic_columns(tmp_path / "b" / "trace.csv"))


class TestBench:
    def variants_file(self, tmp_path):
        path = tmp_path / "variants.txt"
        path.write_text(
            "name=bsca_k1_t10 algorithm=bsca blocks=1 inner-iters=10\n"
            "name=bsca_k2_t1 algorithm=bsca blocks=2 inner-iters=1\n"
            "name=bgd_k2 algorithm=bgd blocks=2\n")
        return path

    def test_grid(self, pr_dir, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(["bench", str(pr_dir), "--variants",
                     str(self.variants_file(tmp_path)), "--max-iters", "30",
                     "--out", str(out)])
        assert code == 0
        rows = (out / "comparison.csv").read_text().strip().splitlines()
        assert rows[0] == "variant,final_objective,iters_to_tol,seconds"
        assert len(rows) == 4
        assert (out / "bsca_k1_t10.trace.csv").is_file()
        assert (out / "bgd_k2.trace.csv").is_file()

    def test_single_variant_matches_solve(self, pr_dir, tmp_path):
        variants = tmp_path / "one.txt"
        variants.write_text("name=only algorithm=bsca blocks=2 seed=5\n")
        out = tmp_path / "bench"
        assert main(["bench", str(pr_dir), "--variants", str(variants),
                     "--max-iters", "25", "--out", str(out)]) == 0
        solo = tmp_path / "solo"
        assert main(["solve", str(pr_dir), "--algorithm", "bsca",
                     "--blocks", "2", "--seed", "5", "--max-iters", "25",
                     "--out", str(solo)]) == 0
        assert (deterministic_columns(out / "only.trace.csv")
                == deterministic_columns(solo / "trace.csv"))

    def test_published_figure_grid_has_eight_rows(self, pr_dir, tmp_path):
        variants = tmp_path / "grid.txt"
        lines = [f"name=bsca_k{K}_t{tau} algorithm=bsca blocks={K} inner-iters={tau}"
                 for K in (1, 2, 10) for tau in (1, 10)]
        lines += [f"name=bgd_k{K} algorithm=bgd blocks={K}" for K in (2, 10)]
        variants.write_text("\n".join(lines) + "\n")
        out = tmp_path / "bench"
        assert main(["bench", str(pr_dir), "--variants", str(variants),
                     "--max-iters", "40", "--out", str(out)]) == 0
        rows = (out / "comparison.csv").read_text().strip().splitlines()
        assert len(rows) == 9  # header + 8 variants

    def test_a_variant_name_used_twice_exits_2(self, anomaly_dir, tmp_path, capsys):
        # each name owns one trace file, one row and one manifest entry
        variants = tmp_path / "twice.txt"
        variants.write_text("name=a algorithm=bpgd\nname=a algorithm=bsca max-iters=5\n")
        out = tmp_path / "bench"
        assert main(["bench", str(anomaly_dir), "--variants", str(variants),
                     "--out", str(out)]) == 2
        assert "used twice" in capsys.readouterr().err
        assert not (out / "comparison.csv").exists()

    def test_a_token_without_a_value_exits_2(self, anomaly_dir, tmp_path, capsys):
        variants = tmp_path / "bare.txt"
        variants.write_text("name=a algorithm=bsca\nname=b algorithm=bsca max-iters\n")
        out = tmp_path / "bench"
        assert main(["bench", str(anomaly_dir), "--variants", str(variants),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "max-iters" in err[0]
        assert not (out / "comparison.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ("name=a algorithm=bsca\nalgorithm=bsca max-iters=5\n", "needs name= and algorithm="),
        ("name=a algorithm=bsca\nname=b max-iters=5\n", "needs name= and algorithm="),
        ("# only a comment\n\n", "no variants defined"),
    ])
    def test_a_variants_file_without_a_whole_variant_exits_2(
            self, anomaly_dir, tmp_path, capsys, text, message):
        variants = tmp_path / "v.txt"
        variants.write_text(text)
        out = tmp_path / "bench"
        assert main(["bench", str(anomaly_dir), "--variants", str(variants),
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "comparison.csv").exists()

    def test_a_missing_variants_file_exits_2(self, anomaly_dir, tmp_path, capsys):
        missing = tmp_path / "none.txt"
        assert main(["bench", str(anomaly_dir), "--variants", str(missing),
                     "--out", str(tmp_path / "bench")]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_an_unknown_algorithm_fails_its_variant(self, pr_dir, tmp_path, capsys):
        variants = tmp_path / "v.txt"
        variants.write_text("name=a algorithm=bsca\nname=b algorithm=newton\n")
        out = tmp_path / "bench"
        assert main(["bench", str(pr_dir), "--variants", str(variants),
                     "--max-iters", "5", "--out", str(out)]) == 0
        assert "variant b failed: unknown algorithm 'newton'" in capsys.readouterr().err
        assert len((out / "comparison.csv").read_text().splitlines()) == 2
        assert read_manifest(out / RUN_MANIFEST)["failed.b"] == "unknown algorithm 'newton'"

    def test_all_variants_failing_exits_3(self, anomaly_dir, tmp_path, capsys):
        variants = tmp_path / "bad.txt"
        variants.write_text("name=broken algorithm=bpgd\n")
        assert main(["bench", str(anomaly_dir), "--variants", str(variants),
                     "--out", str(tmp_path / "bench")]) == 3

    def test_malformed_variant_value_fails_that_variant(self, anomaly_dir,
                                                         tmp_path, capsys):
        variants = tmp_path / "typo.txt"
        variants.write_text("name=ok algorithm=bsca max-iters=10\n"
                            "name=typo algorithm=bsca max-iters=ten\n"
                            "name=rule algorithm=bsca rule=zigzag\n")
        out = tmp_path / "bench"
        assert main(["bench", str(anomaly_dir), "--variants", str(variants),
                     "--out", str(out)]) == 0
        manifest = read_manifest(out / RUN_MANIFEST)
        assert "max-iters must be int" in manifest["failed.typo"]
        assert "rule must be one of" in manifest["failed.rule"]

    def test_partial_failure_still_succeeds(self, anomaly_dir, tmp_path, capsys):
        variants = tmp_path / "mixed.txt"
        variants.write_text("name=ok algorithm=bsca max-iters=10\n"
                            "name=broken algorithm=bpgd\n")
        out = tmp_path / "bench"
        assert main(["bench", str(anomaly_dir), "--variants", str(variants),
                     "--out", str(out)]) == 0
        rows = (out / "comparison.csv").read_text().strip().splitlines()
        assert len(rows) == 2 and rows[1].startswith("ok,")
        manifest = read_manifest(out / RUN_MANIFEST)
        assert "failed.broken" in manifest


class TestReproduce:
    def test_generate_reproduces_bit_exactly(self, pr_dir, tmp_path, capsys):
        assert main(["reproduce", str(pr_dir / RUN_MANIFEST)]) == 0
        assert "outputs match" in capsys.readouterr().out

    def test_solve_reproduces(self, pr_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve", str(pr_dir), "--algorithm", "bsca",
                     "--blocks", "2", "--seed", "3", "--max-iters", "30",
                     "--out", str(out)]) == 0
        assert main(["reproduce", str(out / RUN_MANIFEST)]) == 0

    def test_tampered_trace_detected(self, pr_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve", str(pr_dir), "--algorithm", "bsca",
                     "--max-iters", "15", "--out", str(out)]) == 0
        trace = out / "trace.csv"
        lines = trace.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[4] = "1234.5"
        lines[-1] = ",".join(cells)
        trace.write_text("\n".join(lines) + "\n")
        assert main(["reproduce", str(out / RUN_MANIFEST)]) == 3

    def test_bench_reproduces(self, pr_dir, tmp_path, capsys):
        variants = tmp_path / "v.txt"
        variants.write_text("name=a algorithm=bsca blocks=2 inner-iters=2\n"
                            "name=b algorithm=bgd blocks=2\n")
        out = tmp_path / "bench"
        assert main(["bench", str(pr_dir), "--variants", str(variants),
                     "--max-iters", "20", "--seed", "4",
                     "--out", str(out)]) == 0
        assert main(["reproduce", str(out / RUN_MANIFEST)]) == 0

    def test_an_output_the_rerun_leaves_out_differs(self, anomaly_dir, pr_dir,
                                                    tmp_path, capsys):
        variants = tmp_path / "v.txt"
        variants.write_text("name=bsca algorithm=bsca\nname=parallel algorithm=parallel-sca\n")
        out = tmp_path / "bench"
        assert main(["bench", str(anomaly_dir), "--variants", str(variants),
                     "--max-iters", "6", "--out", str(out)]) == 0
        # the rerun's parallel variant fails, so it writes no trace
        variants.write_text("name=bsca algorithm=bsca\nname=parallel algorithm=bpgd\n")
        # and a rerun generate writes no matrix the recorded bundle lacks
        (pr_dir / "extra.mat").write_bytes((pr_dir / "intensities.mat").read_bytes())
        for manifest in (out / RUN_MANIFEST, pr_dir / RUN_MANIFEST):
            capsys.readouterr()
            assert main(["reproduce", str(manifest)]) == 3
            err = capsys.readouterr().err
            assert "outputs differ" in err
            missing = "parallel.trace.csv" if manifest.parent == out else "extra.mat"
            assert f"mismatch in {missing}" in err

    def test_bench_records_every_solve_option(self, pr_dir, tmp_path, capsys):
        variants = tmp_path / "v.txt"
        variants.write_text("name=a algorithm=bsca blocks=2\n")
        out = tmp_path / "bench"
        assert main(["bench", str(pr_dir), "--variants", str(variants),
                     "--inner-iters", "2", "--c", "0.01", "--max-iters", "20",
                     "--out", str(out)]) == 0
        manifest = read_manifest(out / RUN_MANIFEST)
        assert manifest["param.inner_iters"] == "2"
        assert float(manifest["param.c"]) == 0.01
        assert manifest["param.rule"] == "cyclic"
        assert "param.blocks" not in manifest
        capsys.readouterr()
        assert main(["reproduce", str(out / RUN_MANIFEST)]) == 0
        assert "outputs match" in capsys.readouterr().out

    def test_an_unknown_command_exits_2(self, pr_dir, capsys):
        manifest = pr_dir / RUN_MANIFEST
        entries = read_manifest(manifest)
        entries["command"] = "publish"
        write_manifest(manifest, entries)
        assert main(["reproduce", str(manifest)]) == 2
        assert "cannot reproduce command 'publish'" in capsys.readouterr().err

    def test_a_failed_rerun_exits_3(self, pr_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve", str(pr_dir), "--algorithm", "bsca",
                     "--max-iters", "5", "--out", str(out)]) == 0
        shutil.rmtree(pr_dir)
        capsys.readouterr()
        assert main(["reproduce", str(out / RUN_MANIFEST)]) == 3
        err = capsys.readouterr().err
        assert "reproduction run failed" in err and "outputs differ" not in err

    def test_missing_manifest(self, tmp_path):
        assert main(["reproduce", str(tmp_path / "nope.manifest")]) == 2

    @pytest.mark.parametrize("command, key", [
        ("solve", "command"), ("solve", "algorithm"), ("solve", "instance"),
        ("generate", "app"), ("bench", "variants")])
    def test_manifest_missing_key_exits_2(self, pr_dir, tmp_path, capsys,
                                          command, key):
        out = tmp_path / "run"
        if command == "solve":
            assert main(["solve", str(pr_dir), "--algorithm", "bsca",
                         "--max-iters", "5", "--out", str(out)]) == 0
        elif command == "bench":
            variants = tmp_path / "v.txt"
            variants.write_text("name=a algorithm=bsca\n")
            assert main(["bench", str(pr_dir), "--variants", str(variants),
                         "--max-iters", "5", "--out", str(out)]) == 0
        else:
            out = pr_dir
        manifest = out / RUN_MANIFEST
        entries = read_manifest(manifest)
        del entries[key]
        write_manifest(manifest, entries)
        capsys.readouterr()
        assert main(["reproduce", str(manifest)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(manifest) in err[0] and f"{key!r}" in err[0]

    def test_malformed_manifest_line_exits_2(self, pr_dir, tmp_path, capsys):
        manifest = pr_dir / RUN_MANIFEST
        manifest.write_text(manifest.read_text() + "no value here\n")
        capsys.readouterr()
        assert main(["reproduce", str(manifest)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "no value here" in err[0]

    def test_blas_threads_recorded_and_named_when_outputs_differ(
            self, pr_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "1")
        out = tmp_path / "run"
        assert main(["solve", str(pr_dir), "--algorithm", "bsca",
                     "--max-iters", "15", "--out", str(out)]) == 0
        manifest = read_manifest(out / RUN_MANIFEST)
        assert manifest["blas.OPENBLAS_NUM_THREADS"] == "1"
        assert manifest["blas.OMP_NUM_THREADS"] == "unset"
        assert manifest["blas.MKL_NUM_THREADS"] == "1"
        # matching outputs say nothing about threads, whatever the settings
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        capsys.readouterr()
        assert main(["reproduce", str(out / RUN_MANIFEST)]) == 0
        assert "BLAS" not in capsys.readouterr().err
        # differing outputs name the settings that changed, and only those
        trace = out / "trace.csv"
        lines = trace.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[4] = "1234.5"
        lines[-1] = ",".join(cells)
        trace.write_text("\n".join(lines) + "\n")
        assert main(["reproduce", str(out / RUN_MANIFEST)]) == 3
        err = capsys.readouterr().err
        assert "OPENBLAS_NUM_THREADS recorded 1, now 2" in err
        assert "MKL_NUM_THREADS" not in err and "OMP_NUM_THREADS" not in err

    def test_manifest_without_blas_threads_still_reproduces(
            self, pr_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve", str(pr_dir), "--algorithm", "bsca",
                     "--max-iters", "15", "--out", str(out)]) == 0
        path = out / RUN_MANIFEST
        kept = [line for line in path.read_text().splitlines()
                if not line.startswith("blas.")]
        path.write_text("\n".join(kept) + "\n")
        assert main(["reproduce", str(path)]) == 0


def test_console_entry_smoke(tmp_path):
    out = tmp_path / "inst"
    proc = subprocess.run(
        [sys.executable, "-m", "bsca", "generate", "pr", "--I", "10",
         "--N", "8", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (out / "instance.manifest").is_file()


def test_a_pr_bundle_larger_than_the_data_limit_generates_and_solves(tmp_path):
    # RLIMIT_DATA counts private writable memory, not shared file
    # mappings: the generator draws into the mapped sampling file and the
    # solver reads it mapped, so a 122 MiB matrix passes under a 96 MiB
    # limit (importing bsca alone takes about 51 MiB), while drawing the
    # same matrix in memory fails
    cap = 96 << 20
    rows, cols = 3200, 5000
    assert rows * cols * 8 > 1.25 * cap

    def limited(*argv):
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True,
            env={**os.environ, **{var: "1" for var in BLAS_THREAD_VARS}},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_DATA, (cap, cap)))

    bundle = tmp_path / "pr"
    try:
        made = limited("-m", "bsca", "generate", "pr", "--I", str(rows), "--N", str(cols),
                       "--blocks", "4", "--out", str(bundle))
        assert made.returncode == 0, made.stderr
        solved = limited("-m", "bsca", "solve", str(bundle), "--algorithm", "bsca",
                         "--max-iters", "8", "--out", str(tmp_path / "run"))
        assert solved.returncode == 0, solved.stderr
        assert "final_objective=" in solved.stdout
        control = limited("-c", "from bsca.phase_retrieval import generate_pr_instance; "
                          f"generate_pr_instance({rows}, {cols}, num_blocks=4)")
        assert control.returncode != 0
        assert "MemoryError" in control.stderr
    finally:
        shutil.rmtree(bundle, ignore_errors=True)

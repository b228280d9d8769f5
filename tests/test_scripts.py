"""Every script under scripts/ imports against the current library, and
every ``bsca bench`` variants file there names algorithms and settings
the command line takes, so a deleted or renamed library name, option or
algorithm fails the test suite instead of the study's next run."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT_DIR = Path(__file__).resolve().parents[1] / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))
VARIANTS = sorted(SCRIPT_DIR.glob("*.variants"))


def test_scripts_are_found():
    assert SCRIPTS


def load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)    # the __main__ guard keeps main() from running
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.stem)
def test_script_imports(path):
    assert callable(load(path).main)


def variant_options(path):
    """``(name, algorithm, options)`` of each line of a variants file, its
    settings over the command line's defaults, as ``bsca bench`` reads it
    (without solving)."""
    from bsca.cli import SOLVE_DEFAULTS, _parse_variants, _with_settings

    for tokens in _parse_variants(path):
        settings = dict(tokens)
        name, algorithm = settings.pop("name"), settings.pop("algorithm")
        yield name, algorithm, _with_settings(SOLVE_DEFAULTS, settings, f"variant {name}")


@pytest.mark.parametrize("path", VARIANTS, ids=lambda path: path.stem)
def test_variants_file_takes_the_command_lines_algorithms_and_options(path):
    from bsca.cli import ALGORITHMS

    for name, algorithm, _ in variant_options(path):
        assert algorithm in ALGORITHMS, name


def test_desk_pr_variants_hold_the_grid_and_both_baselines():
    # the nine variants of scripts/pr_variant_grid.py, 3000 sweeps each
    variants = [(algorithm, options) for _, algorithm, options
                in variant_options(SCRIPT_DIR / "desk_pr.variants")]
    assert len(variants) == 9
    assert all(options["max_iters"] == 3000 * (options["blocks"] or 1)
               and options["tol"] == 0 for _, options in variants)
    assert {(algorithm, options["blocks"]) for algorithm, options in variants} == {
        ("bsca", 1), ("bsca", 2), ("bsca", 10), ("bgd", 2), ("bgd", 10), ("bpgd", None)}
    grid = {(options["blocks"], options["inner_iters"])
            for algorithm, options in variants if algorithm == "bsca"}
    assert grid == {(K, tau) for K in (1, 2, 10) for tau in (1, 10)}


def test_desk_pr_grid_runs_the_bench_loop_from_the_scripts_warm_start(
        tmp_path, monkeypatch):
    # each trace equals the direct call of the solver from the same start
    from bsca.core import SolverConfig
    from bsca.engine import run_bgd, run_bpgd
    from bsca.phase_retrieval import (
        generate_pr_instance,
        pr_problem,
        run_phase_retrieval,
        with_blocks,
    )

    grid = load(next(path for path in SCRIPTS if path.stem == "pr_variant_grid"))
    monkeypatch.setattr(sys, "argv", ["pr_variant_grid.py", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as done:
        grid.main()
    assert done.value.code == 0
    inst = generate_pr_instance(400, 100, density=0.01, seed=0)
    noise = np.random.default_rng(1000).standard_normal(400)
    x0 = inst.signal + 0.2 * (noise / np.linalg.norm(noise))
    direct = {}
    for K in (1, 2, 10):
        for tau in (1, 10):
            cfg = SolverConfig(max_outer_iterations=3000 * K, stop_tol=0.0,
                               inner_iterations=tau)
            direct[f"bsca_k{K}_t{tau}"] = run_phase_retrieval(with_blocks(inst, K), cfg, x0)
    for K in (2, 10):
        cfg = SolverConfig(max_outer_iterations=3000 * K, stop_tol=0.0)
        direct[f"bgd_k{K}"] = run_bgd(pr_problem(with_blocks(inst, K)), cfg, x0)
    direct["bpgd"] = run_bpgd(inst, SolverConfig(max_outer_iterations=3000, stop_tol=0.0), x0)
    for name, trace in direct.items():
        trace.write_csv(tmp_path / "direct.csv")
        assert (without_time(tmp_path / f"{name}.trace.csv")
                == without_time(tmp_path / "direct.csv")), name
    assert len(without_time(tmp_path / "comparison.csv")) == 1 + len(direct)


def without_time(path):
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


def test_manifest_gate_runs_without_pythonpath():
    gate = next(path for path in SCRIPTS if path.stem == "manifest_gate")
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(gate), "--help"], env=env,
                          cwd=gate.parent, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "record" in done.stdout


def test_manifest_gate_compares_a_checkout_with_itself():
    gate = next(path for path in SCRIPTS if path.stem == "manifest_gate")
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(gate), "compare", str(gate.parents[1])],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "25 of 25 manifests reproduce"


def test_manifest_gate_sums_up_how_two_traces_differ(tmp_path):
    gate = load(next(path for path in SCRIPTS if path.stem == "manifest_gate"))
    header = "iter,block,stepsize,armijo_m,objective,elapsed_s\n"
    recorded = tmp_path / "recorded.csv"
    recorded.write_text(header + "0,-1,0,-1,10,0\n1,0,0.5,-1,8,0.1\n2,1,0,-1,8,0.2\n")
    # same skips, the last two objectives moved; the times never count
    moved = tmp_path / "moved.csv"
    moved.write_text(header + "0,-1,0,-1,10,7\n1,0,0.5,-1,8.000001,7\n"
                     "2,1,0,-1,8.000001,7\n")
    assert gate.trace_difference(recorded, moved) == (
        "iterations 2 -> 2; final objective 8.0 -> 8.000001; 2 of 3 rows differ; "
        "largest relative objective difference 1.2e-07; skip pattern same")
    # one more iteration, and the skip of iteration 2 became a step
    longer = tmp_path / "longer.csv"
    longer.write_text(header + "0,-1,0,-1,10,0\n1,0,0.5,-1,8,0.1\n"
                      "2,1,0.25,-1,7.5,0.2\n3,0,0,-1,7.5,0.3\n")
    assert gate.trace_difference(recorded, longer) == (
        "iterations 2 -> 3; final objective 8.0 -> 7.5; 2 of 4 rows differ; "
        "largest relative objective difference 6.2e-02; skip pattern differs")


def test_manifest_gate_solves_every_algorithm_on_every_kind_that_takes_it():
    # a solver path the gate does not run could leave a refactor's
    # reproduce check unnoticed; bpgd takes phase retrieval alone
    from bsca.cli import ALGORITHMS

    gate = load(next(path for path in SCRIPTS if path.stem == "manifest_gate"))
    solved = {(kind, algorithm) for kind, algorithm, _ in gate.SOLVES}
    assert solved == {(kind, algorithm) for kind in gate.INSTANCES
                      for algorithm in ALGORITHMS
                      if (kind, algorithm) != ("anomaly", "bpgd")}


def test_ab_solve_times_a_checkout_against_itself():
    script = next(path for path in SCRIPTS if path.stem == "ab_solve")
    root = script.parents[1]
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(script), str(root), str(root),
                           "anomaly_desk", "1"], env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert "traces bit for bit: yes" in done.stdout
    assert "fails a check" not in done.stdout
    assert "of 1 pairs" in done.stdout
    assert "gauge: median" in done.stdout
    for side in ("A", "B"):
        assert f"{side} solve, raw: median" in done.stdout
        assert f"{side} solve, scaled: median" in done.stdout
    assert "scaled claim rule" in done.stdout
    # both side assignments, each with its own ratio, and one verdict
    assert "sides as given: A runs first, B second" in done.stdout
    assert "sides swapped: B runs first, A second" in done.stdout
    assert done.stdout.count("median ratio B/A") == 2
    assert done.stdout.count("traces bit for bit: yes") == 2
    # each side's warm-up iterations and final objective, under the bit
    # check; one checkout reads the same values on both sides
    ends = re.findall(r"^([AB]) warm-up solve: (\d+) iterations, final objective "
                      r"(\S+)$", done.stdout, re.MULTILINE)
    assert [side for side, *_ in ends] == ["A", "B", "B", "A"]
    assert len({(iterations, value) for _, iterations, value in ends}) == 1
    assert int(ends[0][1]) > 0 and float(ends[0][2]) > 0.0
    assert "claim did not hold" in done.stdout
    assert re.search(r"^geometric mean of the two median ratios B/A: \d+\.\d{3} "
                     r"\(as given \d+\.\d{3}, swapped \d+\.\d{3}\)$",
                     done.stdout, re.MULTILINE)
    # one untimed profiled solve per side and assignment; the count repeats
    # exactly, so one checkout reads the same on both sides
    calls = re.findall(r"^([AB]) function calls per solve \(cProfile, untimed\): "
                       r"(\d+)$", done.stdout, re.MULTILINE)
    assert [side for side, _ in calls] == ["A", "B", "B", "A"]
    assert len({count for _, count in calls}) == 1 and int(calls[0][1]) > 0


def test_ab_solve_claims_a_gain_only_by_the_pair_and_spread_rule():
    ab = load(next(path for path in SCRIPTS if path.stem == "ab_solve"))
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    faster = [t - 0.1 for t in parent]
    # 10 of 10 pairs and a gap of 0.1 s against a spread of 0.03 s
    held, line = ab._rule(parent, faster)
    assert held and "B won 10 of 10 pairs (needs 9)" in line
    assert ab.claim((parent, faster), (parent, faster))[0]
    # 8 of 10 pairs is short of nine tenths, whatever the gap
    slower = [t - 0.1 for t in parent[:8]] + [t + 0.1 for t in parent[8:]]
    assert not ab._rule(parent, slower)[0]
    # every pair won, by less than the spread between A's quartiles
    held, line = ab._rule(parent, [t - 0.01 for t in parent])
    assert not held and "did not hold" in line
    # a tie counts for neither side: 9 wins and a tie hold, 8 and two do not
    assert ab._rule(parent, parent[:1] + [t - 0.1 for t in parent[1:]])[0]
    assert not ab._rule(parent, parent[:2] + [t - 0.1 for t in parent[2:]])[0]
    # one pair won by far: A's quartiles have no spread and 1 of 1 is nine
    # tenths, but fewer than ten pairs never carry a claim
    held, line = ab._rule(parent[:1], faster[:1])
    assert not held and "B won 1 of 1 pairs (needs 1, of at least 10 pairs)" in line
    assert not ab._rule(parent[:9], faster[:9])[0]
    assert not ab.claim((parent[:1], faster[:1]), (parent[:1], faster[:1]))[0]


def test_ab_solve_claims_a_gain_only_under_both_side_assignments():
    # a harness that favours its first side: B wins by 5% when it runs
    # there and loses by 3% when A does, for code of equal speed
    ab = load(next(path for path in SCRIPTS if path.stem == "ab_solve"))
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.01, 0.99, 1.00, 1.00]
    as_given = (base, [0.95 * t for t in base])
    swapped = ([0.97 * t for t in base], base)
    assert ab._rule(*as_given)[0] and not ab._rule(*swapped)[0]
    held, line = ab.claim(as_given, swapped)
    assert not held
    assert line == ("claim did not hold: the rule held with the sides as given "
                    "and did not hold with them swapped")
    assert not ab.claim(swapped, as_given)[0]
    gain = ([1.1 * t for t in base], base)
    held, line = ab.claim(gain, gain)
    assert held and line.startswith("claim held")
    # a symmetric tilt: the second side reads 5% slower in both
    # assignments, so the medians lean apart and their mean does not
    tilted = ((base, [1.05 * t for t in base]), ([1.05 * t for t in base], base))
    mean, line = ab.side_free_ratio(*tilted)
    assert mean == pytest.approx(1.0)
    assert line == ("geometric mean of the two median ratios B/A: 1.000 "
                    "(as given 1.050, swapped 0.952)")


def test_ab_solve_applies_the_claim_rule_to_gauge_scaled_times():
    ab = load(next(path for path in SCRIPTS if path.stem == "ab_solve"))
    # the machine slows by half over the pairs, and the gauge with it: B is
    # 10% faster in every pair, but the drift spreads A's raw quartiles
    # past the raw gap
    gauges = [0.25 * (1.0 + 0.5 * i / 9) for i in range(10)]
    noise = [1.00, 1.01, 0.99, 1.00, 1.01, 0.99, 1.00, 1.01, 0.99, 1.00]
    times_a = [4.0 * g * e for g, e in zip(gauges, noise)]
    times_b = [0.9 * t for t in times_a]
    assert not ab._rule(times_a, times_b)[0]
    held, lines = ab.report(times_a, times_b, gauges, 0.25)
    assert held and lines[-1].startswith("scaled claim rule held: B won 10 of 10")
    assert any(line.startswith("A solve, scaled: median 1.0000 s") for line in lines)
    assert any(line.startswith("A solve, raw: median 1.2") for line in lines)
    assert "median ratio B/A 0.900; B faster in 10 of 10 pairs (100%)" in lines


def test_count_lines_leaves_out_blanks_comments_and_docstrings():
    counter = load(next(path for path in SCRIPTS if path.stem == "count_lines"))
    source = ('"""Module docstring,\n'
              'two lines."""\n'
              '\n'
              '# a comment\n'
              'def f(a,\n'
              '      b):    # a trailing comment\n'
              '    """Function docstring."""\n'
              '    text = """a string\n'
              'that is code"""\n'
              '    return a + b\n')
    # the signature's two lines, the string's two and the return
    assert counter.count(source) == (10, 5)


def test_memory_cap_solves_the_mapped_bundle_to_the_in_memory_bits(tmp_path):
    script = next(path for path in SCRIPTS if path.stem == "memory_cap")
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(script), "--sizes", "300x400",
                           "--blocks", "3", "--cap-mib", "96", "--dir", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert "match bit for bit: yes" in done.stdout
    assert "failed" not in done.stdout
    assert list(tmp_path.iterdir()) == []     # the bundle is deleted

"""Command-line surface: schemas, exit codes, config merging, determinism."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import slowqkd
from slowqkd import Detector, ProtocolParams, attacksim, cli, key_rate, montecarlo
from slowqkd._env import chunk_schedule
from slowqkd.cli import ATTACK_HEADER, MC_HEADER, RATE_HEADER, main

KEYRATE_ARGS = ["keyrate", "--mu", "0.03", "--nu-th", "12", "--eta", "0.1"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# schemas and values


def test_rate_header_is_stable():
    assert RATE_HEADER == (
        "eta,M,L,detector,c_d,mu_opt,nu_th_opt,Q,e_bit,e_ph,e_src_slow,e_mB,G_raw,G"
    )
    assert ATTACK_HEADER == (
        "p_z,M,n_sequences,n_measured,n_clean,trials,analytic_success,"
        "empirical_success,stderr,sifted_naive_mean,sifted_modified_mean"
    )
    assert MC_HEADER == "quantity,analytic,empirical,stderr,z"


def test_package_exports_each_module_all():
    assert sorted(slowqkd.__all__) == sorted([
        "Detector", "ProtocolParams", "KeyRateResult", "binary_entropy",
        "e_src_slow", "detection_rate_Q", "bit_error_rate", "key_rate",
        "Optimum", "CurveSpec", "M_CANDIDATES_DEFAULT", "mu_grid", "optimize_point",
        "optimize_with_M", "heuristic_M", "sweep_curves",
        "McMode", "McConfig", "McStats", "McComparison", "binomial_stderr", "simulate",
        "compare_to_analytic",
        "AttackScenario", "AttackStats", "HonestStats", "DEFAULT_SCENARIO",
        "analytic_success", "run_attack", "honest_baseline",
        "__version__",
    ])
    assert all(hasattr(slowqkd, name) for name in slowqkd.__all__)


def test_keyrate_stdout_matches_library(capsys):
    code, out, _ = run(capsys, KEYRATE_ARGS)
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == RATE_HEADER
    vals = dict(zip(header.split(","), row.split(",")))
    res = key_rate(ProtocolParams(mu=0.03, nu_th=12, eta=0.1, M=1, L=128,
                                  e_sys=0.03, d_c=1e-9))
    assert float(vals["G"]) == res.G
    assert float(vals["Q"]) == res.Q
    assert vals["detector"] == "pnr"
    assert vals["M"] == "1"
    assert float(vals["mu_opt"]) == 0.03
    assert vals["nu_th_opt"] == "12"


def test_keyrate_no_detection_row_uses_nan(capsys):
    code, out, _ = run(capsys, ["keyrate", "--mu", "0", "--nu-th", "0",
                                "--eta", "0.5", "--d-c", "0"])
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    vals = dict(zip(RATE_HEADER.split(","), row))
    assert vals["e_bit"] == "nan"
    assert vals["G"] == "0.0"


def test_curve_rows_and_order(capsys):
    code, out, _ = run(capsys, [
        "curve", "--M-list", "10,1", "--eta-min", "1e-3", "--eta-max", "1e-1",
        "--eta-points", "3", "--points-per-decade", "10",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == RATE_HEADER
    assert len(lines) == 1 + 2 * 3
    got = [(int(l.split(",")[1]), float(l.split(",")[0])) for l in lines[1:]]
    assert got == sorted(got)  # sorted by (M, eta)


def test_optimize_reports_chosen_M(capsys):
    code, out, _ = run(capsys, [
        "optimize", "--M-candidates", "1", "10", "--eta-min", "1e-3",
        "--eta-max", "1e-2", "--eta-points", "2", "--points-per-decade", "10",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    for line in lines[1:]:
        assert int(line.split(",")[1]) in (1, 10)


def test_attack_row_contains_analytic_value(capsys):
    code, out, _ = run(capsys, [
        "attack", "--p-z", "0.99", "--n-measured", "99", "--n-clean", "1",
        "--trials", "5000", "--seed", "42",
    ])
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == ATTACK_HEADER
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["analytic_success"]) == pytest.approx(3.697e-3, abs=1e-6)
    assert vals["sifted_modified_mean"] == "0.0"
    assert vals["trials"] == "5000"


def test_attack_means_past_int64_stay_in_range(capsys):
    # three runs of up to 2^62 matched pulses each: the total passes 2^63
    M = 2**62
    code, out, _ = run(capsys, [
        "attack", "--M", str(M), "--n-sequences", "1", "--n-measured", "1", "--n-clean", "0",
        "--eta-nominal", "1.0", "--trials", "3", "--seed", "1",
    ])
    assert code == 0
    header, row = out.strip().split("\n")
    vals = dict(zip(header.split(","), row.split(",")))
    assert 0.0 <= float(vals["sifted_naive_mean"]) <= M


def test_mc_validate_standard_rows(capsys):
    code, out, _ = run(capsys, [
        "mc-validate", "--mu", "0.005", "--eta", "0.05", "--L", "8",
        "--d-c", "0", "--trials", "20000", "--seed", "3",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == MC_HEADER
    assert [l.split(",")[0] for l in lines[1:]] == ["Q", "e_bit"]


def test_mc_validate_beamdump_row(capsys):
    code, out, _ = run(capsys, [
        "mc-validate", "--mu", "0.05", "--eta", "0.3", "--L", "8",
        "--detector", "threshold", "--mode", "beamdump",
        "--trials", "20000", "--seed", "4",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert [l.split(",")[0] for l in lines[1:]] == ["e_mB"]


# ---------------------------------------------------------------------------
# config file handling


def test_config_supplies_values_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "point.json"
    cfg.write_text(json.dumps({"mu": 0.03, "nu-th": 12, "eta": 0.1, "L": 64}))
    code, out, _ = run(capsys, ["keyrate", "--config", str(cfg)])
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[2] == "64"

    code, out, _ = run(capsys, ["keyrate", "--config", str(cfg), "--L", "32"])
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[2] == "32"


def test_config_hyphen_underscore_equivalence(tmp_path, capsys):
    for key in ("nu-th", "nu_th"):
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({"mu": 0.03, key: 5, "eta": 0.1}))
        code, out, _ = run(capsys, ["keyrate", "--config", str(cfg)])
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[6] == "5"


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"mu": 0.03, "nu-th": 5, "eta": 0.1, "bogus": 1}))
    code, _, err = run(capsys, ["keyrate", "--config", str(cfg)])
    assert code == 2
    assert "bogus" in err


def test_malformed_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code, _, err = run(capsys, ["keyrate", "--config", str(cfg)])
    assert code == 2
    cfg2 = tmp_path / "list.json"
    cfg2.write_text("[1, 2]")
    assert run(capsys, ["keyrate", "--config", str(cfg2)])[0] == 2
    assert run(capsys, ["keyrate", "--config", str(tmp_path / "nope.json")])[0] == 2


def test_missing_required_parameter_is_usage_error(capsys):
    code, _, err = run(capsys, ["keyrate", "--mu", "0.03"])
    assert code == 2
    assert "eta" in err and "nu_th" in err


def test_bad_flag_usage_is_exit_2(capsys):
    assert run(capsys, ["keyrate", "--mu", "abc", "--nu-th", "1", "--eta", "0.1"])[0] == 2
    assert run(capsys, ["frobnicate"])[0] == 2
    assert run(capsys, [])[0] == 2


def test_domain_error_is_exit_3(capsys):
    code, _, err = run(capsys, ["keyrate", "--mu", "0.03", "--nu-th", "12",
                                "--eta", "2.0"])
    assert code == 3
    assert "eta" in err


def test_bad_detector_in_config_is_exit_3(tmp_path, capsys):
    """An unknown enum value is a domain error, in a config or as a flag,
    with one message: the parser holds no second list of choices."""
    cfg = tmp_path / "det.json"
    cfg.write_text(json.dumps({"mu": 0.03, "nu-th": 5, "eta": 0.1,
                               "detector": "calorimeter"}))
    code, _, err = run(capsys, ["keyrate", "--config", str(cfg)])
    assert code == 3
    assert err == "slowqkd: error: detector must be one of pnr, threshold, got 'calorimeter'\n"
    assert run(capsys, KEYRATE_ARGS + ["--detector", "calorimeter"]) == (3, "", err)
    mc = {"mu": 0.05, "eta": 0.3, "detector": "threshold", "mode": "dump"}
    code, _, err = run_config(tmp_path, capsys, "mc-validate", mc)
    assert (code, err) == (3, "slowqkd: error: mode must be one of standard, beamdump, got 'dump'\n")
    flags = [tok for key, value in mc.items() for tok in ("--" + key, str(value))]
    assert run(capsys, ["mc-validate", *flags]) == (3, "", err)


def test_help_names_the_enum_choices(capsys):
    assert "--detector {pnr,threshold}" in run(capsys, ["keyrate", "--help"])[1]
    assert "--mode {standard,beamdump}" in run(capsys, ["mc-validate", "--help"])[1]


def run_config(tmp_path, capsys, cmd, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return run(capsys, [cmd, "--config", str(path)])


POINT = {"mu": 0.03, "nu-th": 5, "eta": 0.1}


@pytest.mark.parametrize(
    "cmd,cfg,key",
    [
        ("keyrate", {**POINT, "M": None}, "M"),
        ("keyrate", {**POINT, "L": [1]}, "L"),
        ("keyrate", {**POINT, "nu-th": 5.7}, "nu_th"),
        ("keyrate", {**POINT, "mu": True}, "mu"),
        ("keyrate", {**POINT, "eta": "high"}, "eta"),
        ("keyrate", {**POINT, "detector": None}, "detector"),
        ("curve", {"M-list": 5}, "M_list"),
        ("curve", {"M-list": [1, "x"]}, "M_list"),
        ("optimize", {"M-candidates": 5}, "M_candidates"),
        ("optimize", {"M-candidates": None}, "M_candidates"),
        ("attack", {"trials": 1.5}, "trials"),
        ("mc-validate", {"mu": 0.01, "eta": 0.1, "mode": 1}, "mode"),
    ],
)
def test_wrong_typed_config_value_is_exit_2_naming_key(tmp_path, capsys, cmd, cfg, key):
    code, out, err = run_config(tmp_path, capsys, cmd, cfg)
    assert code == 2
    assert out == ""
    assert key in err and "must be" in err


def test_integral_float_config_value_is_accepted(tmp_path, capsys):
    code, out, _ = run_config(tmp_path, capsys, "keyrate", {**POINT, "nu-th": 5.0, "M": 1e3})
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert (row[1], row[6]) == ("1000", "5")


def test_integral_float_flag_is_read_like_the_config_value(tmp_path, capsys):
    from_config = run_config(tmp_path, capsys, "keyrate", {**POINT, "nu-th": 5.0, "M": 1e3})
    from_flags = run(capsys, ["keyrate", "--mu", "0.03", "--nu-th", "5.0", "--eta", "0.1",
                              "--M", "1e3"])
    assert from_flags == from_config
    assert from_flags[0] == 0
    code, _, err = run(capsys, [*KEYRATE_ARGS, "--L", "8.5"])
    assert code == 2 and "L must be an integer, got '8.5'" in err


@pytest.mark.parametrize("argv,key", [
    (["keyrate", "--mu", "0.03", "--nu-th", "1", "--eta", "0.1", "--M", str(10**400)], "M*L"),
    (["curve", "--M-list", str(10**400), "--eta-points", "1"], "M*L"),
    (["curve", "--eta-min", "1e-3", "--eta-max", "inf", "--eta-points", "2"], "eta_max"),
])
def test_values_past_the_float_range_are_exit_3(capsys, argv, key):
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert key in err


def test_int_lists_parse_alike_from_strings_lists_and_flags(tmp_path, capsys):
    sweep = {"eta-min": 1e-3, "eta-max": 1e-2, "eta-points": 2, "points-per-decade": 4, "L": 16}
    flags = ["--eta-min", "1e-3", "--eta-max", "1e-2", "--eta-points", "2",
             "--points-per-decade", "4", "--L", "16"]
    for cmd, key in [("curve", "M-list"), ("optimize", "M-candidates")]:
        outputs = [run_config(tmp_path, capsys, cmd, {**sweep, key: value})
                   for value in ("1,10", " 1, 10,", [1, 10])]
        outputs += [run(capsys, [cmd, *flags, f"--{key}", *tokens])
                    for tokens in (["1,10"], ["1", "10"], ["1,", "10"])]
        assert outputs[0][0] == 0
        assert all(o == outputs[0] for o in outputs), cmd


def test_mc_validate_has_no_dead_time_option(tmp_path, capsys):
    argv = ["mc-validate", "--mu", "0.01", "--eta", "0.1", "--trials", "10"]
    assert run(capsys, argv + ["--c-d", "5"])[0] == 2
    code, _, err = run_config(tmp_path, capsys, "mc-validate", {"mu": 0.01, "eta": 0.1, "c-d": 5})
    assert code == 2
    assert "c_d" in err


@pytest.mark.parametrize("flag,key", [("--mu", "mu"), ("--c-d", "c_d")])
def test_infinite_mu_or_dead_time_is_exit_3_naming_field(capsys, flag, key):
    argv = ["keyrate", "--mu", "0.03", "--nu-th", "12", "--eta", "0.1", flag, "inf"]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert f"error: {key} must be finite" in err


def test_dark_counts_beyond_the_channel_model_are_exit_3_naming_d_c(tmp_path, capsys):
    # L*d_c = 2 would give Q = 2.0098 at this point
    out_path = tmp_path / "q.csv"
    code, out, err = run(capsys, ["keyrate", "--mu", "0.001", "--nu-th", "0", "--eta", "0.01",
                                  "--L", "2000", "--d-c", "1e-3", "--out", str(out_path)])
    assert code == 3
    assert out == ""
    assert "error: d_c" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mu,extra", [("1e308", []), ("1e200", ["--detector", "threshold"])],
                         ids=["lambda", "lambda-squared"])
def test_huge_mu_is_exit_3_naming_mu(tmp_path, capsys, mu, extra):
    # L*mu beyond sqrt(float max) would overflow lambda (or lambda^2 in e_mB) to a nan
    out_path = tmp_path / "g.csv"
    code, out, err = run(capsys, ["keyrate", "--mu", mu, "--nu-th", "1", "--eta", "1",
                                  "--L", "8", *extra, "--out", str(out_path)])
    assert code == 3
    assert out == ""
    assert "error: mu" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,key", [
    (["attack", "--n-sequences", "1" + "0" * 400, "--n-measured", "99", "--n-clean", "1",
      "--trials", "10"], "n_sequences"),
    (["attack", "--M", "1" + "0" * 400, "--trials", "10"], "n_sequences*M"),
    (["attack", "--M", str(2**63), "--n-sequences", "1", "--n-measured", "1", "--n-clean", "0",
      "--eta-nominal", "1", "--trials", "10"], "M must not exceed"),
    (["attack", "--M", str(2**62), "--n-sequences", "2", "--n-measured", "2", "--n-clean", "0",
      "--eta-nominal", "1", "--trials", "10"], "M must not exceed"),
    (["attack", "--trials", str(10**30)], "trials"),
    (["mc-validate", "--mu", "0.01", "--eta", "0.1", "--L", "8", "--trials", str(10**30)],
     "trials"),
], ids=["attack-n_sequences", "attack-M", "attack-M-int64", "attack-M-times-forwarded", "attack-trials",
        "mc-validate-trials"])
def test_huge_run_sizes_are_exit_3_naming_the_field(tmp_path, capsys, argv, key):
    # each was an OverflowError traceback (exit 1), or a loop over 10^25 chunks
    out_path = tmp_path / "run.csv"
    code, out, err = run(capsys, [*argv, "--seed", "1", "--out", str(out_path)])
    assert code == 3
    assert out == ""
    assert f"error: {key}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("ppd", [10_923, 10**9])
def test_an_oversized_mu_grid_is_exit_3_naming_points_per_decade(tmp_path, capsys, ppd):
    # 10^9 was a MemoryError traceback (exit 1) under a 3 GB address-space limit;
    # from 10,923 on, one mu row no longer fits one rate_grid call
    out_path = tmp_path / "curve.csv"
    code, out, err = run(capsys, ["curve", "--points-per-decade", str(ppd), "--eta-points", "1",
                                  "--M-list", "1", "--out", str(out_path)])
    assert (code, out) == (3, "")
    assert "error: points_per_decade" in err
    assert list(tmp_path.iterdir()) == []


def test_beamdump_requires_threshold_detector_exit_3(capsys):
    code, _, err = run(capsys, [
        "mc-validate", "--mu", "0.05", "--eta", "0.3", "--mode", "beamdump",
        "--trials", "100", "--seed", "1",
    ])
    assert code == 3


def test_help_exits_zero(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["curve", "--help"])[0] == 0


def test_main_builds_its_parser_once(capsys):
    """Calls of main() share one parser, which a parse leaves as it found it:
    a second call prints the same help and usage errors, with the same codes."""
    cli._build_parser.cache_clear()
    calls = (["--help"], ["mc-validate", "--help"], ["keyrate", "--mu", "abc", "--nu-th", "1",
             "--eta", "0.1"], ["frobnicate"], ["attack", "--no-such-flag"])
    first = [run(capsys, argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 0, 2, 2, 2]
    assert [run(capsys, argv) for argv in calls] == first
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2 * len(calls) - 1)


# ---------------------------------------------------------------------------
# file output


def test_out_writes_file_not_stdout(tmp_path, capsys):
    out_path = tmp_path / "point.csv"
    code, out, _ = run(capsys, KEYRATE_ARGS + ["--out", str(out_path)])
    assert code == 0
    assert out == ""
    text = out_path.read_text()
    assert text.startswith(RATE_HEADER + "\n")
    assert text.endswith("\n")


def test_out_naming_a_directory_is_exit_3_and_cleans_up(tmp_path, capsys):
    """os.replace onto a directory fails after the temp file is written: the
    write unlinks it and re-raises, and the directory is left as it was."""
    target = tmp_path / "results"
    target.mkdir()
    (target / "kept.csv").write_text("x\n")
    code, out, err = run(capsys, KEYRATE_ARGS + ["--out", str(target)])
    assert (code, out) == (3, "")
    assert "Is a directory" in err
    assert [q.name for q in target.iterdir()] == ["kept.csv"]
    assert (target / "kept.csv").read_text() == "x\n"
    assert sorted(q.name for q in tmp_path.iterdir()) == ["results"]  # no .slowqkd-*.tmp


def test_mc_validate_out_of_memory_is_exit_3_naming_M_L(tmp_path, monkeypatch, capsys):
    """A sequence of M*L slots too large to allocate is a domain error, not a
    traceback.  The allocation is stood in for: a real one could be killed
    by the kernel instead of raising."""
    def no_memory(*args):
        raise MemoryError

    monkeypatch.delenv("QKD_THREADS", raising=False)
    monkeypatch.setattr(montecarlo, "_arrivals", no_memory)
    out_path = tmp_path / "mc.csv"
    code, out, err = run(capsys, ["mc-validate", "--mu", "1e-3", "--eta", "0.1", "--M", "100000",
                                  "--L", "100000", "--trials", "1", "--out", str(out_path)])
    assert (code, out) == (3, "")
    assert err == "slowqkd: error: out of memory at M*L = 10000000000 slots\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_run_leaves_no_partial_file(tmp_path, capsys):
    out_path = tmp_path / "never.csv"
    code, _, _ = run(capsys, ["keyrate", "--mu", "0.03", "--nu-th", "12",
                              "--eta", "2.0", "--out", str(out_path)])
    assert code == 3
    assert not out_path.exists()
    assert list(tmp_path.iterdir()) == []  # no temp litter either


@pytest.mark.parametrize(
    "argv",
    [
        ["attack", "--trials", "20000", "--seed", "9"],
        ["mc-validate", "--mu", "0.005", "--eta", "0.05", "--L", "8",
         "--trials", "30000", "--seed", "9"],
        ["curve", "--M-list", "1", "--eta-min", "1e-3", "--eta-max", "1e-2",
         "--eta-points", "2", "--points-per-decade", "10"],
    ],
    ids=["attack", "mc-validate", "curve"],
)
def test_reruns_are_byte_identical(tmp_path, capsys, argv):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_output_identical_across_worker_counts(tmp_path, monkeypatch, capsys, two_workers):
    # both run in three chunks, enough for a pool of two: of 31,250 sequences
    # (M*L = 4*8 elements each), or of 200,000 attack runs
    # (attacksim._RUN_ARRAYS elements each)
    assert len(list(chunk_schedule(70_000, 4 * 8))) == 3
    assert len(list(chunk_schedule(500_000, attacksim._RUN_ARRAYS))) == 3
    for argv in (["mc-validate", "--mu", "0.01", "--eta", "0.05", "--M", "4", "--L", "8",
                  "--trials", "70000", "--seed", "6"],
                 ["attack", "--trials", "500000", "--seed", "6"]):
        a, b = tmp_path / "serial.csv", tmp_path / "pool.csv"
        monkeypatch.delenv("QKD_THREADS", raising=False)
        assert main(argv + ["--out", str(a)]) == 0
        with two_workers():
            assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes(), argv[0]


@pytest.mark.parametrize("threads", ["0", "many"])
@pytest.mark.parametrize("argv", [
    ["curve", "--M-list", "1", "--L", "8", "--eta-points", "1"],
    ["optimize", "--M-candidates", "1", "--L", "8", "--eta-points", "1"],
    ["attack", "--trials", "10"],
    ["mc-validate", "--mu", "0.01", "--eta", "0.1", "--L", "8", "--trials", "10"],
], ids=["curve", "optimize", "attack", "mc-validate"])
def test_bad_worker_count_is_exit_3_even_for_one_task(tmp_path, monkeypatch, capsys, argv, threads):
    # one sweep point or one chunk: too little to pool, but QKD_THREADS is still read
    monkeypatch.setenv("QKD_THREADS", threads)
    out = tmp_path / "out.csv"
    code, _, err = run(capsys, argv + ["--out", str(out)])
    assert code == 3
    assert f"QKD_THREADS must be a positive integer, got {threads!r}" in err
    assert "Traceback" not in err
    assert not out.exists()


REPO = Path(__file__).resolve().parents[1]
REFS = REPO / "perfbench" / "refs"


PROVENANCE = json.loads((REFS / "PROVENANCE.json").read_text(encoding="utf-8"))


@pytest.mark.usefixtures("reference_versions")
@pytest.mark.parametrize("fig,cmd", [("fig1", "curve"), ("fig2", "curve"), ("fig3", "optimize")])
def test_figure_rows_match_the_reference_csvs(tmp_path, capsys, fig, cmd):
    """The figure sweeps reproduce perfbench/refs byte for byte at the first,
    last and two middle eta, each run alone as the benchmark runs it."""
    header, *rows = (REFS / f"{fig}.csv").read_text(encoding="utf-8").splitlines()
    etas = list(dict.fromkeys(row.split(",", 1)[0] for row in rows))
    for eta in (etas[0], etas[len(etas) // 3], etas[2 * len(etas) // 3], etas[-1]):
        out = tmp_path / f"{fig}.csv"
        argv = [cmd, "--config", str(REPO / "configs" / f"{fig}.json"),
                "--eta-max", eta, "--eta-points", "1", "--out", str(out)]
        assert main(argv) == 0, argv
        assert out.read_text(encoding="utf-8").splitlines() == [
            header, *(row for row in rows if row.split(",", 1)[0] == eta)
        ], eta
    capsys.readouterr()


@pytest.mark.usefixtures("reference_versions")
@pytest.mark.parametrize("fig", ["fig1", "fig2", "fig3"])
def test_whole_figures_match_the_reference_csvs(tmp_path, monkeypatch, capsys, fig):
    """Each figure sweep, run whole with the argv recorded in PROVENANCE.json,
    reproduces its reference CSV byte for byte."""
    argv = PROVENANCE["files"][f"{fig}.csv"]["argv"][1:]  # without the program name
    out = tmp_path / f"{fig}.csv"
    argv[argv.index("--out") + 1] = str(out)
    monkeypatch.chdir(REPO)  # the config paths are relative to the repository root
    assert main(argv) == 0, argv
    capsys.readouterr()
    assert out.read_bytes() == (REFS / f"{fig}.csv").read_bytes()


# (id, argv, stdout) of the small commands, in full: the gates above pin only the figure
# sweeps, so a cell such as M written as 100.0 would pass them
REFERENCE_ROWS = [
    ("keyrate-pnr", "keyrate --mu 0.01 --nu-th 4 --eta 1e-3 --M 1000",
     RATE_HEADER + "\n"
     "0.001,1000,128,pnr,0.0,0.01,4,0.3607860710185729,0.030094101552621724,nan,"
     "0.9999580230313745,0.0,0.0,0.0\n"),
    ("keyrate-threshold",
     "keyrate --mu 0.01 --nu-th 4 --eta 1e-3 --M 1000 --detector threshold --c-d 128000",
     RATE_HEADER + "\n"
     "0.001,1000,128,threshold,128000.0,0.01,4,0.3607860710185729,0.030094101552621724,nan,"
     "0.9999580230313745,0.00046244971347228454,0.0,0.0\n"),
    ("keyrate-no-bound", "keyrate --mu 0.001 --nu-th 0 --eta 1e-7",
     RATE_HEADER + "\n"
     "1e-07,1,128,pnr,0.0,0.001,0,1.3439999991808001e-07,0.4776190478918821,nan,"
     "0.12014662085535613,0.0,0.0,0.0\n"),
    ("mc-standard", "mc-validate --mu 0.005 --eta 0.05 --L 8 --trials 30000 --seed 9",
     MC_HEADER + "\n"
     "Q,0.000998009998667333,0.0008666666666666666,0.00016989364865071282,-0.7204735374485292\n"
     "e_bit,0.030003767497324696,0.0,0.0,-0.896787499600543\n"),
    ("mc-beamdump",
     "mc-validate --mu 0.05 --eta 0.3 --L 8 --detector threshold --mode beamdump --trials 20000"
     " --seed 4",
     MC_HEADER + "\n"
     "e_mB,0.006385833530191638,0.0048,0.001385224891488743,-0.9926409936220084\n"),
    ("mc-threshold-M100",
     "mc-validate --mu 0.001 --eta 0.01 --L 128 --M 100 --detector threshold --trials 3000"
     " --seed 5",
     MC_HEADER + "\n"
     "Q,0.060046149546824856,0.06066666666666667,0.004358372105202516,0.14306010780523387\n"
     "e_bit,0.030094101552621724,0.03296703296703297,0.01323502838673615,0.22685871138775304\n"),
    ("mc-no-dark", "mc-validate --mu 1e-9 --eta 1e-7 --L 8 --d-c 0 --trials 1000 --seed 5",
     MC_HEADER + "\n"
     "Q,3.999999999999997e-16,0.0,0.0,-6.324555320336757e-07\n"
     "e_bit,0.03,nan,nan,nan\n"),
    ("mc-threshold-no-dark",
     "mc-validate --mu 0.01 --eta 0.1 --L 8 --M 20 --d-c 0 --detector threshold --trials 3000"
     " --seed 6",
     MC_HEADER + "\n"
     "Q,0.07363278737763561,0.088,0.005172233560078276,3.0130472212341446\n"
     "e_bit,0.03,0.030303030303030304,0.01055016096701199,0.028863003967387963\n"),
    ("mc-beamdump-no-dark",
     "mc-validate --mu 0.05 --eta 0.3 --L 8 --M 4 --d-c 0 --detector threshold --mode beamdump"
     " --trials 20000 --seed 7",
     MC_HEADER + "\n"
     "e_mB,0.021528057712758356,0.0284,0.0033644720239585884,2.3449425964091914\n"),
    # L*eta*mu ~ 1e-3 per block, the regime of the mc_sparse benchmark: nearly every slot is empty
    ("mc-sparse-threshold",
     "mc-validate --mu 1e-5 --eta 0.8 --L 128 --M 1000 --detector threshold --trials 300 --seed 12",
     MC_HEADER + "\n"
     "Q,0.320304316620512,0.4033333333333333,0.028322873886404698,3.0821365129300697\n"
     "e_bit,0.030117590953767735,0.05785123966942149,0.02122381200875362,1.7849663733799759\n"),
    ("mc-no-emission",
     "mc-validate --mu 0 --eta 0.5 --L 8 --M 10 --d-c 1e-3 --trials 3000 --seed 3",
     MC_HEADER + "\n"
     "Q,0.07451850171561065,0.07466666666666667,0.004799012244047573,0.030902255688661864\n"
     "e_bit,0.5,0.5446428571428571,0.03327422689520766,1.3363062095621219\n"),
    # one chunk of 5001 * 21 slots, a piece and a part, in threshold: arrivals walked at
    # mu*eta = 0.006 and dark counts, nearly all of them in slots that hold no photons
    ("mc-odd-slots",
     "mc-validate --mu 0.02 --eta 0.3 --L 7 --M 3 --d-c 1e-3 --detector threshold --trials 5001"
     " --seed 13",
     MC_HEADER + "\n"
     "Q,0.07705516895928743,0.08378324335132974,0.003917863239892253,1.7841462545920328\n"
     "e_bit,0.15123996992479413,0.13365155131264916,0.01662364636543339,-1.0048657734023245\n"),
    # 29 chunks of 7 sequences (14 pieces each) with some 90 dark counts per chunk, threshold
    ("mc-dark-pieces",
     "mc-validate --mu 1e-5 --eta 0.5 --L 128 --M 1000 --d-c 1e-4 --detector threshold --trials 200"
     " --seed 21",
     MC_HEADER + "\n"
     "Q,0.5065563946394019,1.0,0.0,13.957892827567264\n"
     "e_bit,0.4885437408318148,0.465,0.03526861210765175,-0.6660924185839959\n"),
    ("attack-default", "attack --trials 200000 --seed 11",
     ATTACK_HEADER + "\n"
     "0.99,100,10000,99,1,200000,0.0036972963764972675,0.003625,0.00013438488335746696,9802.36781,"
     "0.0\n"),
    ("attack-one-sequence",
     "attack --M 1 --n-sequences 100 --n-measured 1 --n-clean 0 --trials 5000 --seed 2",
     ATTACK_HEADER + "\n"
     "0.99,1,100,1,0,5000,0.99,0.9914,0.0013058361306075162,0.9782,0.9782\n"),
    ("optimize", "optimize --M-candidates 1 10 --eta-points 3 --L 16 --points-per-decade 4",
     RATE_HEADER + "\n"
     "0.0001,1,16,pnr,0.0,0.0015957770286452568,3,1.2926183633948304e-06,0.03581764905478371,"
     "0.21073767106170765,1.7349638493070687e-08,0.0,2.7737574193090947e-09,"
     "2.7737574193090947e-09\n"
     "0.01,1,16,pnr,0.0,0.007671630463600435,3,0.0006129935691417185,0.03001226766540231,"
     "0.21119167158400676,8.575528386177824e-06,0.0,2.3673893548784864e-06,"
     "2.3673893548784864e-06\n"
     "1.0,1,16,pnr,0.0,0.017759770753511366,2,0.10693500165399261,0.03000007032309238,"
     "0.1584155103989262,0.0030948030530710507,0.0,0.0011702856169917314,0.0011702856169917314\n"),
]


@pytest.mark.usefixtures("reference_versions")
@pytest.mark.parametrize("argv,want", [(argv, want) for _, argv, want in REFERENCE_ROWS],
                         ids=[name for name, _, _ in REFERENCE_ROWS])
def test_small_commands_match_their_reference_rows(capsys, argv, want):
    """keyrate, mc-validate, attack and optimize print these rows byte for byte."""
    assert run(capsys, argv.split()) == (0, want, "")


SCIPY_FREE = """
import json, os, sys
from slowqkd import DEFAULT_SCENARIO, McConfig, McMode, ProtocolParams, honest_baseline, simulate
from slowqkd.cli import main
out = os.path.join(sys.argv[1], "out.csv")
mc = ["mc-validate", "--mu", "0.01", "--eta", "0.1", "--L", "8", "--trials", "2000", "--out", out]
seen = {"import": "scipy.special" in sys.modules}
for name, argv in [("attack", ["attack", "--trials", "2000", "--out", out]), ("pnr", mc),
                   ("threshold", mc + ["--detector", "threshold"]),
                   ("beamdump", mc + ["--detector", "threshold", "--mode", "beamdump"])]:
    assert main(argv) == 0, argv
    seen[name] = "scipy.special" in sys.modules
honest_baseline(DEFAULT_SCENARIO, 3, 1)
seen["honest_baseline"] = "scipy.special" in sys.modules
simulate(McConfig(ProtocolParams(mu=0.01, nu_th=0, eta=0.1, L=8), 1000, 1, McMode.STANDARD))
seen["simulate"] = "scipy.special" in sys.modules
assert main(["keyrate", "--mu", "0.03", "--nu-th", "12", "--eta", "0.1", "--out", out]) == 0
seen["keyrate"] = "scipy.special" in sys.modules
print(json.dumps(seen))
"""


def test_only_the_tagged_fraction_loads_scipy(tmp_path):
    """A fresh process imports slowqkd, runs attack, mc-validate in its three
    modes, honest_baseline and simulate without loading scipy.special, which
    is most of the package's start-up; keyrate loads it."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen.pop("keyrate") is True
    assert seen == dict.fromkeys(["import", "attack", "pnr", "threshold", "beamdump",
                                  "honest_baseline", "simulate"], False)


@pytest.mark.skipif(shutil.which("slowqkd") is None,
                    reason="console script not on PATH")
def test_console_script_entry_point():
    proc = subprocess.run(["slowqkd", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "keyrate" in proc.stdout


# ---------------------------------------------------------------------------
# module seams that the traced benchmark (perfbench/) wraps


SEAMS = [
    ("slowqkd.cli", "sweep_curves"),
    ("slowqkd.cli", "optimize_with_M"),
    ("slowqkd.cli", "compare_to_analytic"),
    ("slowqkd.cli", "run_attack"),
    ("slowqkd.cli", "analytic_success"),
    ("slowqkd.optimizer", "optimize_point"),
    ("slowqkd.optimizer", "key_rate"),
    ("slowqkd.optimizer", "replace"),
    ("slowqkd._env", "worker_count"),
]


def test_commands_call_through_traced_module_names(monkeypatch, capsys):
    calls = {seam: [] for seam in SEAMS}

    def counting(seam, fn):
        def wrapper(*args, **kwargs):
            calls[seam].append(args)
            return fn(*args, **kwargs)
        return wrapper

    for seam in SEAMS:
        module = importlib.import_module(seam[0])
        monkeypatch.setattr(module, seam[1], counting(seam, getattr(module, seam[1])))
    monkeypatch.delenv("QKD_THREADS", raising=False)
    sweep = ["--L", "8", "--eta-min", "1e-2", "--eta-max", "1e-1", "--eta-points", "2",
             "--points-per-decade", "2"]
    for argv in (
        KEYRATE_ARGS,
        ["curve", "--M-list", "1,10", *sweep],
        ["optimize", "--M-candidates", "1", "10", *sweep],
        ["attack", "--trials", "10"],
        ["mc-validate", "--mu", "0.01", "--eta", "0.1", "--L", "8", "--trials", "10"],
    ):
        assert run(capsys, argv)[0] == 0, argv
    assert [seam for seam in SEAMS if not calls[seam]] == []
    points = calls[("slowqkd.optimizer", "optimize_point")]
    assert len(points) == 8  # 2 M x 2 eta for curve, 2 eta x 2 candidates for optimize
    assert all(isinstance(args[1], float) and isinstance(args[2], int) for args in points)

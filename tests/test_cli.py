"""Command-line surface: schemas, exit codes, config merging, determinism."""

import importlib
import json
import platform
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest
import scipy

from slowqkd import Detector, ProtocolParams, key_rate
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
    cfg = tmp_path / "det.json"
    cfg.write_text(json.dumps({"mu": 0.03, "nu-th": 5, "eta": 0.1,
                               "detector": "calorimeter"}))
    assert run(capsys, ["keyrate", "--config", str(cfg)])[0] == 3


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
    for cmd, key, flag in [("curve", "M-list", ["--M-list", "1,10"]),
                           ("optimize", "M-candidates", ["--M-candidates", "1", "10"])]:
        outputs = [run_config(tmp_path, capsys, cmd, {**sweep, key: value})
                   for value in ("1,10", " 1, 10,", [1, 10])]
        outputs.append(run(capsys, [cmd, *flags, *flag]))
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
    (["attack", "--trials", str(10**30)], "trials"),
    (["mc-validate", "--mu", "0.01", "--eta", "0.1", "--L", "8", "--trials", str(10**30)],
     "trials"),
], ids=["attack-n_sequences", "attack-M", "attack-M-int64", "attack-trials", "mc-validate-trials"])
def test_huge_run_sizes_are_exit_3_naming_the_field(tmp_path, capsys, argv, key):
    # each was an OverflowError traceback (exit 1), or a loop over 10^25 chunks
    out_path = tmp_path / "run.csv"
    code, out, err = run(capsys, [*argv, "--seed", "1", "--out", str(out_path)])
    assert code == 3
    assert out == ""
    assert f"error: {key}" in err
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


def test_output_identical_across_worker_counts(tmp_path, monkeypatch, capsys):
    # both run in several chunks: 31,250 sequences or 10^4 attack runs each
    for argv in (["mc-validate", "--mu", "0.01", "--eta", "0.05", "--L", "8",
                  "--trials", "40000", "--seed", "6"],
                 ["attack", "--trials", "40000", "--seed", "6"]):
        a, b = tmp_path / "serial.csv", tmp_path / "pool.csv"
        monkeypatch.delenv("QKD_THREADS", raising=False)
        assert main(argv + ["--out", str(a)]) == 0
        monkeypatch.setenv("QKD_THREADS", "2")
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes(), argv[0]


REPO = Path(__file__).resolve().parents[1]
REFS = REPO / "perfbench" / "refs"


def _versions_unlike_the_refs() -> list[str]:
    made_with = json.loads((REFS / "PROVENANCE.json").read_text(encoding="utf-8"))
    here = {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}
    return [f"{k} {v} (refs: {made_with[k]})" for k, v in here.items() if v != made_with[k]]


@pytest.mark.parametrize("fig,cmd", [("fig1", "curve"), ("fig2", "curve"), ("fig3", "optimize")])
def test_figure_rows_match_the_reference_csvs(tmp_path, capsys, fig, cmd):
    """The figure sweeps reproduce perfbench/refs byte for byte at the first,
    last and two middle eta, each run alone as the benchmark runs it."""
    unlike = _versions_unlike_the_refs()
    if unlike:
        pytest.skip("reference CSVs were made with other versions: " + ", ".join(unlike))
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

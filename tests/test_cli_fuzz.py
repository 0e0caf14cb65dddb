"""Bounded fuzz of the CLI: any flag or config value exits 0, 2 or 3.

Each case gives every option of ``keyrate``, ``curve``, ``optimize``,
``attack`` or ``mc-validate`` a valid value, except at most one, which is
left out or takes an out-of-range, non-finite or wrongly typed value.
Each value goes in as a flag or in a JSON config.  L stays small,
``--eta-points`` at most 3, the M lists short and ``--trials`` at most 200;
``mc-validate`` keeps M <= 10 and L <= 16 for time: a chunk's full-size
draws (the Poisson emissions, the uniforms) take one value per slot, at
least M*L per sequence.  Memory would allow more, as the draws are taken a
piece at a time.  One case costs milliseconds.
"""

import io
import json
import math
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from slowqkd.cli import ATTACK_HEADER, MC_HEADER, RATE_HEADER, main

OMIT = object()

# key -> (values the command accepts, values it must refuse).  A case
# draws a good value (or the default) for every option but at most one,
# so that each bad value reaches the check that must refuse it.
M_GOOD = [1, 2, 10, 1000, 10**6, 10**20, 1e300, "7"]
VALUES = {
    "mu": ([0.0, 1e-6, 0.01, 0.5, 2.0, 1e6], [-0.1, math.nan, math.inf, "abc", True, None]),
    "nu_th": ([0, 1, 5, 7, 3.0], [-1, 100, 2.5, "x"]),
    "eta": ([1e-9, 1e-3, 0.5, 1.0, 0.0], [-1.0, 1.5, math.nan]),
    "M": (M_GOOD, [0, -3, 2.5, 10**400, None]),
    "L": ([2, 3, 8, 16, 24, 2.0], [1, 0, -5, "1e400", [8]]),
    "e_sys": ([0.0, 0.03, 0.5, 1.0], [1.2, math.nan]),
    "d_c": ([0.0, 1e-9, 1e-3, 0.03], [0.2, 1.0, -1e-9, math.nan]),
    "c_d": ([0.0, 128.0, 1.28e5, 1e300], [-1.0, math.inf]),
    "detector": (["pnr", "threshold"], ["PNR", "calorimeter", 1, None]),
    "eta_min": ([1e-7, 1e-3, 0.1, 1.0], [0.0, -1.0, 2.0, math.nan, math.inf]),
    "eta_max": ([1e-3, 0.1, 1.0], [0.0, -1.0, 2.0, math.nan, math.inf]),
    "eta_points": ([1, 2, 3, 2.0], [0, -1]),
    "points_per_decade": ([1, 2, 4], [0, -1, 10_923]),  # 10,923: a mu row past _GRID_CELLS
    "M_list": (None, ["1,10", "", ",", "1,x", 5, None, [0], [10, -3], [10**400], [2.5]]),
}
VALUES["M_candidates"] = VALUES["M_list"]
RUNS = {
    "trials": ([1, 2, 50, 200, "30", 7.0], [0, -5, 2.5, 10**30, sys.maxsize + 1, "many", None]),
    "seed": ([0, 1, 12345, 2**40, 10**30], [-1, 2.5, "s"]),
}
# Per command, values that replace the shared ones.  The attack geometry
# is drawn so that Eve's pulse budget matches in a fair share of cases:
# n_measured + n_clean = n_sequences * eta_nominal.
OVERRIDES = {
    "attack": {
        **RUNS,
        "p_z": ([0.5, 0.9, 0.99, 0.01], [0.0, 1.0, -0.5, math.nan, "x"]),
        "M": ([1, 5, 100, "7", 10**18], [0, -3, 2.5, 10**400, 2**63, None]),
        "n_sequences": ([10_000, 100], [10**400, -1, 0, 2.5]),
        "n_measured": ([99, 1], [0, -1, 10**6]),
        "n_clean": ([1, 0], [-1, 10**400]),
        "eta_nominal": ([0.01, 1.0], [0.0, 1.5, math.nan, math.inf]),
    },
    "mc-validate": {
        **RUNS,
        "M": ([1, 2, 10, "7", 3.0], [0, -3, 2.5, 10**400, None]),
        "L": ([2, 3, 8, 16, 2.0], [1, 0, -5, "1e400", [8]]),
        "mode": (["standard", "beamdump"], ["dump", 1, None]),
    },
}
PROTOCOL = ["L", "e_sys", "d_c", "c_d", "detector"]
SWEEP = ["eta_min", "eta_max", "eta_points", "points_per_decade"]
OPTIONS = {
    "keyrate": ["mu", "nu_th", "eta", "M", *PROTOCOL],
    "curve": [*PROTOCOL, *SWEEP, "M_list"],
    "optimize": [*PROTOCOL, *SWEEP, "M_candidates"],
    "attack": [*OVERRIDES["attack"]],
    "mc-validate": ["mu", "eta", "M", "L", "e_sys", "d_c", "detector", "mode", "trials", "seed"],
}
HEADERS = {"attack": ATTACK_HEADER, "mc-validate": MC_HEADER}


def _flag_tokens(key: str, value: object) -> list[str]:
    flag = "--" + key.replace("_", "-")
    if isinstance(value, list):
        tokens = [str(v) for v in value]
        if key == "M_candidates":
            return [flag, *tokens] if tokens else [flag, ""]
        return [flag, ",".join(tokens)]
    return [flag, str(value)]


@st.composite
def invocations(draw, cmd):
    argv, config = [cmd], {}
    bad_key = draw(st.sampled_from([None, *OPTIONS[cmd]]))
    values = {**VALUES, **OVERRIDES.get(cmd, {})}
    for key in OPTIONS[cmd]:
        good, bad = values[key]
        if key == bad_key:
            value = draw(st.sampled_from([OMIT, *bad]))
        elif good is None:  # an M list
            value = draw(st.lists(st.sampled_from(M_GOOD), min_size=1, max_size=3))
        else:
            value = draw(st.sampled_from(good))
        if value is OMIT:
            continue
        if draw(st.booleans()):
            config[key.replace("_", "-")] = value
        else:
            argv += _flag_tokens(key, value)
    return argv, config


def _check(argv: list[str], config: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        argv = [*argv, "--out", str(out)]
        if config:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(path)]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")  # a stray RuntimeWarning fails the case
            code = main(argv)
        assert code in (0, 2, 3), (argv, config, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert list(Path(tmp).glob(".slowqkd-*.tmp")) == []
        if code == 0:
            assert out.read_text(encoding="utf-8").startswith(HEADERS.get(argv[0], RATE_HEADER) + "\n")
        else:
            assert not out.exists()
            assert err.getvalue().startswith(("slowqkd: error:", "usage:"))


@settings(max_examples=400, deadline=None)
@given(invocations("keyrate"))
def test_fuzzed_keyrate_exits_cleanly(case):
    _check(*case)


@settings(max_examples=150, deadline=None)
@given(invocations("curve"))
def test_fuzzed_curve_exits_cleanly(case):
    _check(*case)


@settings(max_examples=150, deadline=None)
@given(invocations("optimize"))
def test_fuzzed_optimize_exits_cleanly(case):
    _check(*case)


# Sizes past the float or index range, which once ended in a traceback
# (or, for attack --trials, a loop over 10^25 chunks), run on every pass.
HUGE = "1" + "0" * 400


@settings(max_examples=150, deadline=None)
@given(invocations("attack"))
@example((["attack", "--n-sequences", HUGE, "--n-measured", "99", "--n-clean", "1",
           "--trials", "10"], {}))
@example((["attack", "--M", HUGE, "--trials", "10"], {}))
@example((["attack", "--trials", "10"], {"M": 2**63, "n-sequences": 1, "n-measured": 1,
                                         "n-clean": 0, "eta-nominal": 1.0}))
@example((["attack", "--trials", "10"], {"M": 2**62, "n-sequences": 2, "n-measured": 2,
                                         "n-clean": 0, "eta-nominal": 1.0}))
@example((["attack"], {"trials": 10**30}))
def test_fuzzed_attack_exits_cleanly(case):
    _check(*case)


@settings(max_examples=150, deadline=None)
@given(invocations("mc-validate"))
@example((["mc-validate", "--mu", "0.01", "--eta", "0.1", "--L", "8", "--trials", str(10**30)], {}))
@example((["mc-validate", "--mu", "0.01", "--eta", "0.1", "--L", "8"], {"trials": sys.maxsize + 1}))
def test_fuzzed_mc_validate_exits_cleanly(case):
    _check(*case)

"""End-to-end command-line behavior, exit codes, and output schemas."""

import json
import math
import random
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from truncdep import (
    CopulaFamily,
    DataError,
    ModelParams,
    StudyDesign,
    hessian_det_scan,
    simulate_truncated,
)
from truncdep.cli import _CSV_CHUNK, _MC_COLUMNS, _plain_rows, _read_sample, main

from oracles import read_xt_oracle

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text(encoding="utf-8"))


def simulate_csv(tmp_path, family="gb", theta=0.05, vartheta=0.3, n=30_000, seed=7):
    out = tmp_path / "sample.csv"
    rc = main(
        [
            "simulate", "--family", family, "--theta", str(theta),
            "--vartheta", str(vartheta), "--G", "24", "--s", "3",
            "--n", str(n), "--seed", str(seed), "--out", str(out),
        ]
    )
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# scalar commands


def test_tau_fgm_closed_form(capsys):
    assert main(["tau", "fgm", "0.45"]) == 0
    assert capsys.readouterr().out.strip() == "0.1"


def test_tau_gb_zero_prints_zero(capsys):
    assert main(["tau", "gb", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_tau_gb_full_strength(capsys):
    assert main(["tau", "gb", "1"]) == 0
    value = float(capsys.readouterr().out)
    assert value == pytest.approx(-0.361, abs=2e-3)


def test_alpha_matches_published_value(capsys):
    assert main(["alpha", "gb", "0.1", "0.001", "--G", "24", "--s", "48"]) == 0
    value = float(capsys.readouterr().out)
    assert value == pytest.approx(0.37575, abs=5e-5)


def test_unknown_family_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tau", "clayton", "0.5"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# simulate


def test_simulate_deterministic_and_well_formed(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = simulate_csv(tmp_path / "a", n=5_000)
    err = capsys.readouterr().err
    assert err.startswith("M=")
    assert "M/n=" in err
    b = simulate_csv(tmp_path / "b", n=5_000)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "x,t"
    assert len(lines) > 100
    for line in lines[1:]:
        x, t = map(float, line.split(","))
        assert 0.0 < t < 24.0
        assert t <= x <= t + 3.0


def test_simulate_csv_reads_back_bit_for_bit(tmp_path):
    csv_path = simulate_csv(tmp_path, family="fgm", theta=0.08, vartheta=0.4, n=20_000)
    design = StudyDesign(24.0, 3.0)
    read = _read_sample(str(csv_path), design)
    drawn = simulate_truncated(
        ModelParams(CopulaFamily.FGM, 0.08, 0.4), design, 20_000, np.random.default_rng(7)
    )
    assert read.m == drawn.m > 100
    np.testing.assert_array_equal(read.x_arr, drawn.x_arr)
    np.testing.assert_array_equal(read.t_arr, drawn.t_arr)


@pytest.mark.parametrize("n", [10_000, 1_000_000])
def test_simulate_writes_the_bytes_of_one_string(tmp_path, capsys, n):
    # M = 993 fits in one chunk; M = 97,575 spans six, the last one partial
    flags = [
        "simulate", "--family", "fgm", "--theta", "0.0817", "--vartheta", "0.1",
        "--G", "24", "--s", "3", "--n", str(n), "--seed", "5",
    ]
    sample = simulate_truncated(
        ModelParams(CopulaFamily.FGM, 0.0817, 0.1), StudyDesign(24.0, 3.0), n,
        np.random.default_rng(5),
    )
    assert (sample.m < _CSV_CHUNK) == (n == 10_000)
    rows = zip(sample.x_arr.tolist(), sample.t_arr.tolist())
    want = "x,t\n" + "".join(f"{x!r},{t!r}\n" for x, t in rows)
    out = tmp_path / "sample.csv"
    assert main(flags + ["--out", str(out)]) == 0
    assert out.read_bytes() == want.encode()
    capsys.readouterr()
    assert main(flags) == 0
    assert capsys.readouterr().out == want


def test_simulate_empty_sample_is_header_only(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    rc = main(
        [
            "simulate", "--family", "gb", "--theta", "0.05", "--vartheta", "0.0",
            "--G", "24", "--s", "3", "--n", "1", "--seed", "0", "--out", str(out),
        ]
    )
    assert rc == 0
    assert out.read_text() == "x,t\n"
    assert capsys.readouterr().err.startswith("M=0 ")


def test_simulate_rejects_bad_theta(capsys):
    rc = main(
        [
            "simulate", "--family", "gb", "--theta", "-1", "--vartheta", "0.3",
            "--G", "24", "--s", "3", "--n", "100", "--seed", "1",
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_simulate_bad_seed_exits_2(capsys):
    rc = main(
        [
            "simulate", "--family", "gb", "--theta", "0.05", "--vartheta", "0.3",
            "--G", "24", "--s", "3", "--n", "100", "--seed", "-1",
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: seed=-1 ")


# ---------------------------------------------------------------------------
# fit


def test_fit_roundtrip_validates_schema(tmp_path, capsys):
    csv_path = simulate_csv(tmp_path)
    capsys.readouterr()
    rc = main(["fit", str(csv_path), "--family", "gb", "--G", "24", "--s", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, load_schema("fit_result.schema.json"))
    assert payload["converged"]
    assert abs(payload["theta_hat"] - 0.05) <= 3.0 * payload["se_theta"]
    assert payload["m"] == len(csv_path.read_text().splitlines()) - 1


def test_fit_boundary_note_present(tmp_path, capsys):
    csv_path = simulate_csv(tmp_path, vartheta=0.0, seed=41)
    capsys.readouterr()
    rc = main(["fit", str(csv_path), "--family", "gb", "--G", "24", "--s", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["at_boundary"]
    assert payload["vartheta_hat"] == 0.0
    assert any("boundary" in note for note in payload["notes"])


def test_fit_nonconvergence_exits_3_with_note(tmp_path, capsys, monkeypatch):
    csv_path = simulate_csv(tmp_path)
    capsys.readouterr()
    monkeypatch.setattr("truncdep.estimation._MAX_ITER", 1)
    rc = main(["fit", str(csv_path), "--family", "gb", "--G", "24", "--s", "3"])
    assert rc == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is False
    assert "optimizer did not meet the convergence contract" in payload["notes"]


def test_fit_missing_file_exits_2(capsys):
    rc = main(["fit", "/nonexistent.csv", "--family", "gb", "--G", "24", "--s", "3"])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_fit_bad_header_cites_line_1(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,1\n")
    rc = main(["fit", str(p), "--family", "gb", "--G", "24", "--s", "3"])
    assert rc == 2
    assert f"{p}:1:" in capsys.readouterr().err


def test_fit_bad_row_cites_physical_line(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("x,t\n1.5,1.0\n9.0,2.0\n")
    rc = main(["fit", str(p), "--family", "gb", "--G", "24", "--s", "3"])
    assert rc == 2
    assert f"{p}:3:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body,message",
    [
        ("1.5,1.0\nnan,2.0\n", ":3: non-finite value"),
        ("1.5,1.0\n2.5,inf\n", ":3: non-finite value"),
        ("1.5,1.0\n25.0,24.0\n", ":3: t=24.0 outside (0, 24.0)"),
        ("1.5,1.0\n1.0,2.0\n", ":3: x=1.0 outside [t, t+s] = [2.0, 5.0]"),
        ("9.0,2.0\n1.5,1.0\n3.0,-1.0\n", ":2: x=9.0 outside [t, t+s]"),
        ("1.5,1.0\n3.0,-1.0\n9.0,2.0\n", ":3: t=-1.0 outside (0, 24.0)"),
        ("9.0,2.0\noops,1.0\n", ":3: non-numeric value"),
        ("9.0,2.0\n1.5\n", ":3: expected 2 fields, got 1"),
    ],
    ids=["nan", "inf", "t-range", "x-range", "first-of-two", "first-of-two-t",
         "parse-before-region", "structure-before-region"],
)
def test_read_sample_reports_first_bad_line(tmp_path, body, message):
    p = tmp_path / "bad.csv"
    p.write_text("x,t\n" + body)
    with pytest.raises(DataError) as exc:
        _read_sample(str(p), StudyDesign(24.0, 3.0))
    assert str(exc.value).startswith(f"{p}{message}")


def test_fit_non_numeric_value(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("x,t\noops,1.0\n")
    rc = main(["fit", str(p), "--family", "gb", "--G", "24", "--s", "3"])
    assert rc == 2
    assert "non-numeric" in capsys.readouterr().err


def test_fit_header_only_file(tmp_path, capsys):
    p = tmp_path / "empty.csv"
    p.write_text("x,t\n")
    rc = main(["fit", str(p), "--family", "gb", "--G", "24", "--s", "3"])
    assert rc == 2
    assert "no observations" in capsys.readouterr().err


def test_fit_writes_to_out_file(tmp_path, capsys):
    csv_path = simulate_csv(tmp_path, n=10_000)
    out = tmp_path / "fit.json"
    rc = main(
        [
            "fit", str(csv_path), "--family", "gb", "--G", "24", "--s", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    jsonschema.validate(
        json.loads(out.read_text()), load_schema("fit_result.schema.json")
    )


def test_fit_non_utf8_file_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_bytes(b"x,t\n1.5,1.0\n\xff\xfe,2\n")
    rc = main(["fit", str(p), "--family", "gb", "--G", "24", "--s", "3"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {p}: not UTF-8 (")


def test_fit_field_over_csv_limit_exits_2(tmp_path, capsys):
    # CRLF line ends send the file to the csv row loop, whose field limit
    # is 131,072 characters
    p = tmp_path / "long.csv"
    p.write_bytes(b"x,t\r\n1." + b"0" * 200_000 + b",1.0\r\n")
    rc = main(["fit", str(p), "--family", "gb", "--G", "24", "--s", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}:")
    assert "field larger than field limit" in err


# ---------------------------------------------------------------------------
# CSV reader: the plain-form fast path against the csv row loop


def test_plain_rows_parses_what_simulate_writes(tmp_path):
    csv_path = simulate_csv(tmp_path, family="fgm", theta=0.08, vartheta=0.4, n=20_000)
    header, _, body = csv_path.read_bytes().partition(b"\n")
    assert header == b"x,t"
    rows = _plain_rows(body)
    assert rows is not None
    x, t = read_xt_oracle(str(csv_path))
    np.testing.assert_array_equal(rows, np.column_stack([x, t]))


_NUMBER_BYTES = "0123456789.eE+-"
_EXOTIC_FIELDS = [
    "inf", "-inf", "nan", "1e999", "-1e999", "1e-320", "1_5", " 1.5", "2.0 ",
    '"1.5"', '"2,5"', "", "0x1p0", "1.5\t",
]
_HEADERS = ["x,t"] * 12 + ['"x","t"', "x,t ", "x, t", "t,x"]


def _random_csv(rng: random.Random) -> str:
    """A small x,t CSV: mostly in-region numbers, with the reader's edge cases."""
    junk = rng.choice([0.0, 0.0, 0.02, 0.3])
    exotic = rng.choice([0.0, 0.0, 0.05])
    odd_width = rng.choice([0.0, 0.0, 0.1])
    blank = rng.choice([0.0, 0.0, 0.1])
    newline = rng.choice(["\n"] * 6 + ["\r\n", "\r", "mixed"])

    def field(value: float) -> str:
        r = rng.random()
        if r < junk:
            return "".join(rng.choices(_NUMBER_BYTES, k=rng.randint(1, 6)))
        if r < junk + exotic:
            return rng.choice(_EXOTIC_FIELDS)
        fmt = rng.choice(["{!r}", "{:.6e}", "{:.4f}", "+{!r}", "0{!r}", "{:.3E}", "{:.0f}"])
        return fmt.format(value)

    lines = [rng.choice(_HEADERS)]
    for _ in range(rng.randint(0, 6)):
        if rng.random() < blank:
            lines.append("")
        t = rng.uniform(0.01, 23.99)
        row = [field(t + rng.uniform(0.0, 3.0)), field(t)]
        if rng.random() < odd_width:
            row = row[:1] if rng.random() < 0.5 else row + [field(t)]
        lines.append(",".join(row))
    ends = [
        rng.choice(["\n", "\r\n", "\r"]) if newline == "mixed" else newline
        for _ in lines
    ]
    if rng.random() < 0.2:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def test_read_sample_matches_the_csv_row_loop(tmp_path):
    """Same x, t bits, or the same error text, as csv.reader plus float()."""
    design = StudyDesign(24.0, 3.0)
    rng = random.Random(20230530)
    path = tmp_path / "sample.csv"
    seen = {"plain": 0, "accepted": 0, "parse_error": 0, "region_error": 0}
    for _ in range(3000):
        path.write_bytes(_random_csv(rng).encode("utf-8"))
        header, _, body = path.read_bytes().partition(b"\n")
        seen["plain"] += header == b"x,t" and _plain_rows(body) is not None
        try:
            x, t = read_xt_oracle(str(path))
        except DataError as expected:
            seen["parse_error"] += 1
            with pytest.raises(DataError) as exc:
                _read_sample(str(path), design)
            assert str(exc.value) == str(expected)
            continue
        inside = (0.0 < t) & (t < 24.0) & (t <= x) & (x <= t + 3.0)
        if inside.all():
            seen["accepted"] += 1
            sample = _read_sample(str(path), design)
            assert sample.x_arr.tobytes() == x.tobytes()
            assert sample.t_arr.tobytes() == t.tobytes()
        else:
            seen["region_error"] += 1
            with pytest.raises(DataError) as exc:
                _read_sample(str(path), design)
            assert str(exc.value).startswith(f"{path}:{np.argmin(inside) + 2}: ")
    assert min(seen.values()) >= 250, seen


# ---------------------------------------------------------------------------
# test command


def test_test_gb_validates_schema(tmp_path, capsys):
    csv_path = simulate_csv(tmp_path, n=10_000)
    capsys.readouterr()
    rc = main(["test", str(csv_path), "--family", "gb", "--G", "24", "--s", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, load_schema("test_result.schema.json"))
    assert payload["trend"] is None
    assert 0.0 < payload["test"]["p_value"] <= 0.5


def test_test_fgm_includes_trend(tmp_path, capsys):
    csv_path = simulate_csv(tmp_path, family="fgm", theta=0.08, vartheta=0.4)
    capsys.readouterr()
    rc = main(
        ["test", str(csv_path), "--family", "fgm", "--G", "24", "--s", "3"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, load_schema("test_result.schema.json"))
    trend = payload["trend"]
    assert trend is not None
    expected = payload["fit"]["vartheta_hat"] / (payload["fit"]["theta_hat"] * 24.0)
    assert trend["annual_change"] == pytest.approx(expected, rel=1e-12)
    assert trend["annual_change_days"] == pytest.approx(
        expected * 365.25, rel=1e-12
    )


def test_test_gb_rejects_level_above_half(tmp_path, capsys):
    csv_path = simulate_csv(tmp_path, n=10_000)
    capsys.readouterr()
    rc = main(
        [
            "test", str(csv_path), "--family", "gb", "--G", "24", "--s", "3",
            "--level", "0.6",
        ]
    )
    assert rc == 2
    assert "level" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# mc command


MC_FLAGS = [
    "mc", "--family", "gb", "--theta", "0.05", "--vartheta", "0.3",
    "--G", "24", "--s", "3", "--n", "2000", "--replications", "2",
    "--seed", "5", "--threads", "1",
]


def test_mc_csv_stdout_has_exact_columns(capsys):
    assert main(MC_FLAGS) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(_MC_COLUMNS)
    assert len(lines) == 2
    row = lines[1].split(",")
    assert len(row) == len(_MC_COLUMNS)
    assert row[0] == "gb"
    assert int(row[_MC_COLUMNS.index("failures")]) == 0


def test_mc_large_theta_passes_the_mse_identity(capsys):
    # the null scenario with theta and 1/G, 1/s scaled by 25,000
    flags = [
        "mc", "--family", "gb", "--theta", "2000", "--vartheta", "0",
        "--G", "0.00096", "--s", "0.00012", "--n", "10000",
        "--replications", "100", "--seed", "7", "--threads", "1",
    ]
    assert main(flags) == 0
    assert capsys.readouterr().err == ""


def test_mc_columns_match_schema_required_order():
    schema = load_schema("mc_result.schema.json")
    assert _MC_COLUMNS == schema["properties"]["scenarios"]["items"]["required"]


def test_mc_flag_domain_error_exits_2(capsys):
    flags = list(MC_FLAGS)
    flags[flags.index("--theta") + 1] = "-1"
    assert main(flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario 0: theta=")


def test_mc_json_validates_schema(capsys):
    assert main(MC_FLAGS + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, load_schema("mc_result.schema.json"))
    assert len(payload["scenarios"]) == 1
    assert "power_curve" not in payload


def test_mc_scenario_file(tmp_path, capsys):
    scenarios = [
        {
            "design": {"big_g": 24.0, "s": 3.0},
            "params0": {"family": "gb", "theta": 0.05, "vartheta": 0.3},
            "n": 2000,
            "replications": 2,
            "seed": 5,
        },
        {
            "design": {"big_g": 24.0, "s": 48.0},
            "params0": {"family": "fgm", "theta": 0.1, "vartheta": 0.0},
            "n": 1000,
            "replications": 2,
            "seed": 6,
            "level": 0.1,
        },
    ]
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(scenarios))
    rc = main(["mc", "--scenarios", str(p), "--threads", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "gb"
    assert lines[2].split(",")[0] == "fgm"


def test_mc_scenario_file_missing_field(tmp_path, capsys):
    p = tmp_path / "scen.json"
    p.write_text(json.dumps({"design": {"big_g": 24.0, "s": 3.0}}))
    rc = main(["mc", "--scenarios", str(p), "--threads", "1"])
    assert rc == 2
    assert "missing field" in capsys.readouterr().err


SCENARIO = {
    "design": {"big_g": 24.0, "s": 3.0},
    "params0": {"family": "gb", "theta": 0.05, "vartheta": 0.3},
    "n": 2000,
    "replications": 2,
    "seed": 5,
}


@pytest.mark.parametrize("field", ["n", "replications", "seed"])
@pytest.mark.parametrize(
    "value", [2000.7, True, "12", math.inf, math.nan],
    ids=["fraction", "bool", "string", "inf", "nan"],
)
def test_mc_scenario_integer_fields_refuse_non_integers(tmp_path, capsys, field, value):
    p = tmp_path / "scen.json"
    p.write_text(json.dumps({**SCENARIO, field: value}))  # inf/nan as Infinity/NaN
    rc = main(["mc", "--scenarios", str(p), "--threads", "1"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: scenario 0: {field}={value!r} must be an integer\n"
    )


def test_mc_scenario_int_too_large_for_a_float_exits_2(tmp_path, capsys):
    p = tmp_path / "scen.json"
    p.write_text(json.dumps({**SCENARIO, "design": {"big_g": 10**400, "s": 3.0}}))
    assert main(["mc", "--scenarios", str(p), "--threads", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: scenario 0: ")


def test_mc_scenario_integer_fields_accept_integral_floats(tmp_path, capsys):
    p = tmp_path / "scen.json"
    p.write_text(json.dumps({**SCENARIO, "n": 10000.0, "replications": 2.0, "seed": 5.0}))
    assert main(["mc", "--scenarios", str(p), "--threads", "1", "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["scenarios"]
    assert (row["n"], row["replications"], row["seed"]) == (10000, 2, 5)


@pytest.mark.parametrize("field", ["theta", "vartheta", "big_g", "s", "level"])
@pytest.mark.parametrize("value", [True, "0.05", "24"], ids=["bool", "string", "int-string"])
def test_mc_scenario_float_fields_refuse_non_numbers(tmp_path, capsys, field, value):
    scenario = json.loads(json.dumps(SCENARIO))
    if field in ("theta", "vartheta"):
        scenario["params0"][field] = value
    elif field in ("big_g", "s"):
        scenario["design"][field] = value
    else:
        scenario[field] = value
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(scenario))
    rc = main(["mc", "--scenarios", str(p), "--threads", "1"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: scenario 0: {field}={value!r} must be a number\n"
    )


def test_mc_scenario_float_fields_accept_ints(tmp_path, capsys):
    p = tmp_path / "scen.json"
    p.write_text(json.dumps({**SCENARIO, "design": {"big_g": 24, "s": 3}}))
    assert main(["mc", "--scenarios", str(p), "--threads", "1"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert (cells["G"], cells["s"]) == ("24.0", "3.0")


def test_mc_missing_flags_listed(capsys):
    rc = main(["mc", "--family", "gb", "--threads", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--theta" in err and "--seed" in err


def test_mc_power_grid_appends_table(capsys):
    rc = main(MC_FLAGS + ["--power-grid", "0,0.3"])
    assert rc == 0
    out = capsys.readouterr().out
    blocks = out.split("\n\n")
    assert len(blocks) == 2
    power_lines = blocks[1].splitlines()
    assert power_lines[0] == "vartheta0,rejection_rate,mc_se"
    assert len(power_lines) == 3
    assert [line.split(",")[0] for line in power_lines[1:]] == ["0.0", "0.3"]


def test_mc_power_grid_sibling_file(tmp_path, capsys):
    out = tmp_path / "study.csv"
    rc = main(MC_FLAGS + ["--power-grid", "0,0.3", "--out", str(out)])
    assert rc == 0
    sibling = tmp_path / "study.power.csv"
    assert sibling.exists()
    assert str(sibling) in capsys.readouterr().err
    assert out.read_text().splitlines()[0] == ",".join(_MC_COLUMNS)
    assert sibling.read_text().splitlines()[0] == "vartheta0,rejection_rate,mc_se"


def test_mc_power_grid_needs_single_scenario(tmp_path, capsys):
    scenarios = [
        {
            "design": {"big_g": 24.0, "s": 3.0},
            "params0": {"family": "gb", "theta": 0.05, "vartheta": 0.3},
            "n": 2000,
            "replications": 2,
            "seed": i,
        }
        for i in range(2)
    ]
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(scenarios))
    rc = main(
        ["mc", "--scenarios", str(p), "--power-grid", "0,0.3", "--threads", "1"]
    )
    assert rc == 2
    assert "exactly one" in capsys.readouterr().err


def test_mc_json_non_finite_becomes_null(capsys):
    # a 2-replication run cannot produce nan here, so poke the sanitizer
    from truncdep.cli import _jsonable

    assert _jsonable({"a": math.nan, "b": [math.inf, 1.0]}) == {
        "a": None,
        "b": [None, 1.0],
    }
    assert _jsonable(True) is True
    assert _jsonable({"flag": False}) == {"flag": False}


# ---------------------------------------------------------------------------
# scan command

SCAN_FLAGS = [
    "scan", "--theta-grid", "0.08", "0.1", "--vartheta-grid", "0.0", "0.3",
    "--G", "24", "--s", "3", "--n-mc", "2000", "--seed", "5",
]


def test_scan_writes_the_grid(tmp_path, capsys):
    out = tmp_path / "dets.csv"
    assert main(SCAN_FLAGS + ["--out", str(out)]) == 0
    data = out.read_bytes()
    assert b"\r" not in data
    header, *rows = [line.split(",") for line in data.decode().splitlines()]
    assert header == ["theta0", "vartheta0", "det"]
    assert [row[:2] for row in rows] == [
        ["0.08", "0.0"], ["0.08", "0.3"], ["0.1", "0.0"], ["0.1", "0.3"],
    ]
    dets = hessian_det_scan([0.08, 0.1], [0.0, 0.3], StudyDesign(24.0, 3.0), 2000, 5)
    np.testing.assert_array_equal([float(row[2]) for row in rows], dets.ravel())
    assert capsys.readouterr().err.startswith("minimum det ")


@pytest.mark.parametrize(
    "flag,value,message",
    [("--n-mc", "0", "n_mc=0"), ("--G", "-1", "big_g=-1.0"), ("--seed", "-1", "seed=-1")],
)
def test_scan_domain_error_exits_2(capsys, flag, value, message):
    flags = list(SCAN_FLAGS)
    flags[flags.index(flag) + 1] = value
    assert main(flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_scan_with_no_draw_in_the_region_exits_2(capsys):
    # At s = 0.01 about one latent pair in 2,800 is observed, so ten
    # draws leave the region empty: its Hessian is zero, not singular.
    flags = [
        "scan", "--theta-grid", "0.08", "--vartheta-grid", "0", "--G", "24",
        "--s", "0.01", "--n-mc", "10",
    ]
    assert main(flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no draw lands in the observable region")
    assert "theta0=0.08, vartheta0=0.0 (n_mc=10)" in err


# ---------------------------------------------------------------------------
# an --out that cannot be opened


@pytest.mark.parametrize("command", ["simulate", "fit", "test", "mc", "scan"])
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    sample_flags = ["--family", "gb", "--G", "24", "--s", "3"]
    argv = {
        "simulate": [
            "simulate", "--family", "gb", "--theta", "0.05", "--vartheta", "0.3",
            "--G", "24", "--s", "3", "--n", "1000", "--seed", "1",
        ],
        "fit": ["fit", str(simulate_csv(tmp_path, n=10_000))] + sample_flags,
        "test": ["test", str(simulate_csv(tmp_path, n=10_000))] + sample_flags,
        "mc": MC_FLAGS,
        "scan": SCAN_FLAGS,
    }[command]
    out = tmp_path / "missing_dir" / "out.txt"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert not out.parent.exists()

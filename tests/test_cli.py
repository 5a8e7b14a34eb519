import copy
import hashlib
import json
import re

import pytest

from paramix import acceptance, cli
from paramix.analysis import FitResult
from paramix.schemas import SCHEMA_TAG, validate_artifact

JIS_PRESET = {"preset": "reference"}
JIS_PLAIN = {
    "f_a_ghz": 6.84,
    "f_b_ghz": 9.567,
    "gamma_a_mhz": 40.0,
    "gamma_b_mhz": 100.0,
    "rho": 0.4142135623730951,
}
RECORDS = [
    {"label": "bare", "t1_us": 60.0, "t2e_us": 54.0, "kappa_mhz": 1.1, "chi_mhz": 0.94,
     "jis": "off", "jda": "off"},
    {"label": "jis only", "t1_us": 63.0, "t2e_us": 55.0, "kappa_mhz": 1.1, "chi_mhz": 0.94,
     "jis": "on", "jda": "off"},
    {"label": "jda only", "t1_us": 55.0, "t2e_us": 6.0, "kappa_mhz": 1.1, "chi_mhz": 0.94,
     "jis": "off", "jda": "on"},
    {"label": "full chain", "t1_us": 65.0, "t2e_us": 40.0, "kappa_mhz": 1.1, "chi_mhz": 0.94,
     "jis": "on", "jda": "on"},
]


def run(tmp_path, command, payload, fmt=None, out=None, name="config.json"):
    cfg = tmp_path / name
    cfg.write_text(json.dumps({"schema": SCHEMA_TAG, **payload}))
    argv = [command, "--config", str(cfg), "--out", str(out or tmp_path)]
    if fmt is not None:
        argv += ["--format", fmt]
    return cli.main(argv)


def test_jpc_sweep_csv(tmp_path):
    rc = run(tmp_path, "jpc-sweep", {"jpc": {**JIS_PLAIN}, "grid": {"points": 21}})
    assert rc == 0
    lines = (tmp_path / "jpc_sweep.csv").read_text().splitlines()
    assert lines[0] == "f_GHz,t_sq,ra_sq,arg_t_rad"
    assert len(lines) == 22
    # center row sits on resonance where |t|^2 + |r|^2 = 1
    mid = [float(x) for x in lines[11].split(",")]
    assert mid[0] == pytest.approx(6.84, abs=1e-9)
    assert mid[1] + mid[2] == pytest.approx(1.0, abs=1e-8)


def test_jpc_sweep_json(tmp_path):
    rc = run(tmp_path, "jpc-sweep", {"jpc": {**JIS_PLAIN}, "grid": {"points": 11}}, fmt="json")
    assert rc == 0
    doc = json.loads((tmp_path / "jpc_sweep.json").read_text())
    validate_artifact("jpc_sweep_rows", doc)
    assert len(doc["rows"]) == 11


def test_jis_sweep_with_sidecar(tmp_path):
    rc = run(
        tmp_path,
        "jis-sweep",
        {"jis": JIS_PRESET, "grid": {"span_mhz": 200.0, "points": 401}},
    )
    assert rc == 0
    lines = (tmp_path / "jis_sweep.csv").read_text().splitlines()
    assert lines[0] == "f_GHz,S21_dB,S12_dB,S11_dB,S22_dB"
    assert len(lines) == 402
    side = json.loads((tmp_path / "jis_sweep.json").read_text())
    validate_artifact("jis_sweep_sidecar", side)
    assert side["direction"] == "s12"
    assert side["gamma_mhz"] == pytest.approx(17.1325424, abs=1e-6)
    assert side["floor"] == pytest.approx(0.0950669529, abs=1e-8)
    assert not (tmp_path / "jis_sweep.s2p").exists()


def test_jis_sweep_touchstone(tmp_path):
    rc = run(
        tmp_path,
        "jis-sweep",
        {"jis": JIS_PRESET, "grid": {"points": 5}},
        fmt="touchstone",
    )
    assert rc == 0
    lines = (tmp_path / "jis_sweep.s2p").read_text().splitlines()
    assert lines[1] == "# GHz S RI R 50"
    assert len(lines) == 7
    assert len(lines[2].split()) == 9


def test_jis_sweep_without_dip_exits_3(tmp_path, capsys):
    rc = run(tmp_path, "jis-sweep", {"jis": {**JIS_PLAIN, "rho": 0.0}, "grid": {"points": 11}})
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err
    # artifacts are written before the failure is reported
    side = json.loads((tmp_path / "jis_sweep.json").read_text())
    assert side["gamma_mhz"] is None
    assert "note" in side
    assert (tmp_path / "jis_sweep.csv").exists()


def test_jis_4port_formats(tmp_path):
    assert run(tmp_path, "jis-4port", {"jis": JIS_PRESET}) == 0
    s4p = (tmp_path / "jis_4port.s4p").read_text().splitlines()
    assert s4p[0] == "! 4-port scattering data"
    assert len(s4p) == 6

    assert run(tmp_path, "jis-4port", {"jis": JIS_PRESET}, fmt="csv") == 0
    lines = (tmp_path / "jis_4port.csv").read_text().splitlines()
    assert lines[0] == "out_port,in_port,s_real,s_imag"
    assert len(lines) == 17

    assert run(tmp_path, "jis-4port", {"jis": JIS_PRESET}, fmt="json") == 0
    doc = json.loads((tmp_path / "jis_4port.json").read_text())
    validate_artifact("four_port", doc)
    assert doc["ports"] == ["1", "2", "3", "4"]


def test_fit_command(tmp_path):
    rc = run(tmp_path, "fit", {"s21_sq": 0.36, "s12_sq": 0.01})
    assert rc == 0
    doc = json.loads((tmp_path / "fit.json").read_text())
    validate_artifact("fit_result", doc)
    assert doc["rho"] == pytest.approx(0.672508005, abs=1e-6)
    assert doc["alpha_mag"] == pytest.approx(0.288020101, abs=1e-6)
    assert doc["alpha_identifiable"] is True


def test_fit_unidentifiable_alpha_exits_3(tmp_path, capsys):
    rc = run(tmp_path, "fit", {"s21_sq": 1.0, "s12_sq": 1.0})
    assert rc == 3
    assert "not identifiable" in capsys.readouterr().err
    doc = json.loads((tmp_path / "fit.json").read_text())
    assert doc["alpha_identifiable"] is False
    assert doc["alpha_mag"] == 0.0


def test_parity_command(tmp_path):
    chains = [
        [{"parity": "even"}, {"parity": "odd", "pump_port": "P2"}],
        [{"parity": "even"}],
        [{"parity": "odd"}, {"parity": "odd"}, {"parity": "odd", "pump_port": "P2"}],
    ]
    rc = run(tmp_path, "parity", {"chains": chains})
    assert rc == 0
    doc = json.loads((tmp_path / "parity.json").read_text())
    validate_artifact("parity_report", doc)
    assert doc["all_match"] is True
    assert [r["xor"] for r in doc["rows"]] == ["odd", "even", "odd"]
    assert doc["calibration_phase_rad"] == 0.0


def test_readout_writes_both_artifacts(tmp_path):
    rc = run(tmp_path, "readout", {"records": RECORDS})
    assert rc == 0
    doc = json.loads((tmp_path / "readout.json").read_text())
    validate_artifact("readout_report", doc)
    assert doc["isolation_db"] == pytest.approx(13.158, abs=5e-3)
    assert doc["nbar_th"] == pytest.approx(0.003492, abs=1e-5)
    lines = (tmp_path / "readout.csv").read_text().splitlines()
    assert lines[0] == "label,jis,jda,t_phi_us,gamma_phi_per_us,nbar,nbar_ba"
    assert len(lines) == 5
    assert lines[1].startswith("bare,off,off,")


def test_readout_occupancy_that_overflows_exits_3(tmp_path, capsys):
    # schema-valid rates whose occupancy quotient leaves the float range
    for field, value in (("kappa_mhz", 1e300), ("chi_mhz", 1e300), ("chi_mhz", 1e-200)):
        assert run(tmp_path, "readout", {"records": [{**RECORDS[0], field: value}]}) == 3
        assert "numerical error: occupancy is not finite" in capsys.readouterr().err


def test_flux_curve_command(tmp_path):
    rc = run(tmp_path, "flux-curve", {"jrm": {}, "grid": {"points": 11}})
    assert rc == 0
    lines = (tmp_path / "flux_curve.csv").read_text().splitlines()
    assert lines[0] == "phi_ext_rad,f_ghz"
    assert len(lines) == 12
    mid = [float(x) for x in lines[6].split(",")]
    assert mid[0] == pytest.approx(0.0, abs=1e-12)
    assert mid[1] == pytest.approx(7.0232, abs=1e-9)


def test_bandwidth_scan_command(tmp_path):
    rc = run(
        tmp_path,
        "bandwidth-scan",
        {"jis": JIS_PRESET, "rho_values": [0.3, 0.4], "grid": {"points": 1001}},
    )
    assert rc == 0
    lines = (tmp_path / "bandwidth_scan.csv").read_text().splitlines()
    assert lines[0] == "rho,sqrt_L,gamma_mhz,gamma0_sqrt_L_mhz"
    assert len(lines) == 3
    for ln in lines[1:]:
        rho, sqrt_l, gamma, law = (float(x) for x in ln.split(","))
        assert abs(gamma / law - 1.0) < 0.15


def test_config_error_paths(tmp_path, capsys):
    missing = cli.main(["jpc-sweep", "--config", str(tmp_path / "nope.json")])
    assert missing == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["fit", "--config", str(bad)]) == 2

    assert cli.main(["jpc-sweep", "--out", str(tmp_path)]) == 2  # no --config

    assert run(tmp_path, "jpc-sweep", {"jpc": JIS_PLAIN, "extra": 1}) == 2
    assert run(tmp_path, "fit", {"s21_sq": 0.5}) == 2  # s12_sq missing
    assert run(tmp_path, "fit", {"s21_sq": 0.5, "s12_sq": 1.5}) == 2  # out of range
    assert run(tmp_path, "jis-4port", {"jis": JIS_PRESET, "grid": {"points": 5}}) == 2
    # a readout key that nothing reads
    assert run(tmp_path, "readout", {"records": [{**RECORDS[0], "i_over_sigma": 2.0}]}) == 2

    wrong_tag = tmp_path / "tag.json"
    wrong_tag.write_text(json.dumps({"schema": "paramix/2", "s21_sq": 0.5, "s12_sq": 0.5}))
    assert cli.main(["fit", "--config", str(wrong_tag)]) == 2

    assert run(tmp_path, "fit", {"s21_sq": 0.5, "s12_sq": 0.5}, fmt="csv") == 2
    assert "config error" in capsys.readouterr().err


def test_values_the_models_reject_are_config_errors(tmp_path, capsys):
    # schema-valid, but the models need f_a < f_b and a flux inside the primary lobe
    inverted = {**JIS_PLAIN, "f_a_ghz": 9.567, "f_b_ghz": 6.84}
    assert run(tmp_path, "jpc-sweep", {"jpc": inverted}) == 2
    assert run(tmp_path, "jis-sweep", {"jis": inverted}) == 2
    assert run(tmp_path, "jis-sweep", {"jis": {**JIS_PRESET, "phi_ext1_rad": 9.0}}) == 2
    assert "config error: need 0 < f_a_ghz < f_b_ghz" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, payload",
    [
        ("jpc-sweep", {"jpc": JIS_PLAIN}),
        ("jis-sweep", {"jis": JIS_PRESET}),
        ("bandwidth-scan", {"jis": JIS_PRESET, "rho_values": [0.3]}),
    ],
)
def test_a_grid_that_reaches_zero_frequency_is_a_config_error(tmp_path, capsys, command, payload):
    # the signal sits at 6.84 GHz, so a 13,680 MHz span starts the grid at f = 0
    for span in (20000.0, 13680.0):
        out = tmp_path / str(span)
        grid = {"span_mhz": span, "points": 5}
        assert run(tmp_path, command, {**payload, "grid": grid}, out=out) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: grid span ") and "reaches f <= 0" in err
        assert not list(out.iterdir())
    assert run(tmp_path, command, {**payload, "grid": {"span_mhz": 13679.0, "points": 5}}) in (0, 3)


def test_numpy_warnings_stay_off_stderr(tmp_path, capsys):
    # a vanishing linewidth overflows the line shape into NaN, which the
    # writer refuses; only that refusal reaches the user
    rc = run(tmp_path, "jis-sweep", {"jis": {**JIS_PLAIN, "gamma_a_mhz": 1e-320}})
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1


def test_a_bug_in_compute_code_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(config, f_ghz):
        raise ValueError("bug")

    monkeypatch.setattr(cli, "effective_2port_sweep", broken)
    with pytest.raises(ValueError, match="bug"):
        run(tmp_path, "jis-sweep", {"jis": JIS_PRESET})


def test_flux_curve_divergence_exits_3(tmp_path, capsys):
    # a weak shunt diverges near the lobe edges of the default window
    rc = run(tmp_path, "flux-curve", {"jrm": {"lj0_over_l": 1.0}})
    assert rc == 3
    assert "diverges" in capsys.readouterr().err


def test_unknown_command_is_an_argparse_error(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate", "--config", str(tmp_path / "x.json")])


def test_out_directory_is_created(tmp_path):
    out = tmp_path / "a" / "b"
    rc = run(tmp_path, "fit", {"s21_sq": 0.36, "s12_sq": 0.01}, out=out)
    assert rc == 0
    assert (out / "fit.json").exists()


def test_selftest_runs_clean_and_repeats_byte_identically(tmp_path, capsys, battery):
    assert cli.main(["selftest", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "12/12 criteria passed" in out
    # the session's own battery run is the independent repeat
    assert out == acceptance.render_table(sorted(battery.values(), key=lambda r: r.number)) + "\n"


def test_one_process_runs_every_command_to_the_golden_bytes(tmp_path):
    from test_golden import CASES, GOLDEN

    # the parser and the network plans are built once and reused by every call
    for round_ in range(2):
        for k, (command, fmt, payload, names) in enumerate(CASES):
            out = tmp_path / f"{round_}-{k}"
            assert run(tmp_path, command, payload, fmt=fmt, out=out) == 0
            digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
            assert digests == {name: GOLDEN[name] for name in names}
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])
        assert cli.main(["fit", "--config", str(tmp_path / "missing.json")]) == 2


def test_the_preset_and_the_full_jis_report_a_bad_field_at_its_own_path(tmp_path, capsys):
    for jis in (JIS_PRESET, JIS_PLAIN):
        assert run(tmp_path, "jis-sweep", {"jis": {**jis, "rho": 1.5}}) == 2
        err = capsys.readouterr().err
        assert "invalid config at jis/rho: 1.5 is greater than the maximum of 1" in err


# One config per command with every optional numeric field present. Each
# numeric field in turn is replaced by an extreme number or by a raw JSON
# token that no float can hold; no replacement may end in a traceback, an
# exit code outside the policy, or a NaN or infinity in an artifact.
JIS_FULL = {
    **JIS_PLAIN,
    "alpha_mag": 0.51,
    "pump_port": "P1",
    "phi_ext1_rad": -7.037,
    "phi_ext2_rad": -7.037,
    "delay_length_um": 11.283,
    "delay_eps_eff": 7.418,
}
GRID = {"span_mhz": 300.0, "points": 21}
FUZZ_CONFIGS = {
    "jpc-sweep": {"jpc": {**JIS_PLAIN, "pump_phase_rad": 0.5, "phi_ext_rad": -1.0}, "grid": GRID},
    "jis-sweep": {"jis": JIS_FULL, "grid": GRID},
    "jis-4port": {"jis": JIS_FULL},
    "fit": {"s21_sq": 0.36, "s12_sq": 0.01, "pump_port": "P2"},
    "readout": {"records": RECORDS},
    "flux-curve": {
        "jrm": {"i0_ua": 2.82, "f_max_ghz": 7.0232, "z_res_ohm": 51.1, "lj0_over_l": 3.1,
                "lj0_over_ls": 5.0},
        "grid": {"phi_start_rad": -1.0, "phi_stop_rad": 1.0, "points": 21},
    },
    "bandwidth-scan": {"jis": JIS_FULL, "rho_values": [0.3, 0.4], "grid": GRID},
}
FUZZ_NUMBERS = ["1e308", "-1e308", "1e-320", "0", "-1", "1e15"]
FUZZ_TOKENS = ["NaN", "Infinity", "-Infinity", "1e999"]
FUZZ_POINTS = ["1e308", str(2**40)]
# a NaN or infinity as Python, numpy or JSON prints it
NON_FINITE = re.compile(r"-?\b(?:nan|inf(?:inity)?)\b", re.IGNORECASE)


def numeric_paths(doc, path=()):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from numeric_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from numeric_paths(value, path + (i,))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path


def with_literal(doc, path, literal):
    """The JSON text of doc with the number at path spelled as literal."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@literal@"
    return json.dumps(doc).replace('"@literal@"', literal)


@pytest.mark.parametrize("command", FUZZ_CONFIGS)
def test_extreme_and_non_finite_numbers_exit_by_the_policy(tmp_path, command):
    doc = {"schema": SCHEMA_TAG, **FUZZ_CONFIGS[command]}
    cases = [
        (path, literal)
        for path in numeric_paths(doc)
        for literal in FUZZ_NUMBERS + FUZZ_TOKENS + (FUZZ_POINTS if path[-1] == "points" else [])
    ]
    failures = []
    for k, (path, literal) in enumerate(cases):
        for fmt in cli._FORMATS[command]:
            cfg = tmp_path / f"{k}-{fmt}.json"
            cfg.write_text(with_literal(doc, path, literal))
            out = tmp_path / f"{k}-{fmt}"
            rc = cli.main([command, "--config", str(cfg), "--out", str(out), "--format", fmt])
            # no float holds a token, and no grid is that long
            refused = literal in FUZZ_TOKENS or (path[-1] == "points" and literal in FUZZ_POINTS)
            if rc not in ((2,) if refused else (0, 2, 3, 4)):
                failures.append((path, literal, fmt, f"exit {rc}"))
            for artifact in out.iterdir() if out.exists() else ():
                found = NON_FINITE.findall(artifact.read_text())
                if any(not (m == "-inf" and artifact.suffix == ".csv") for m in found):
                    failures.append((path, literal, fmt, f"{artifact.name} holds {found[:3]}"))
    assert not failures


def test_numbers_no_float_holds_are_config_errors(tmp_path, capsys):
    # NaN once passed every bound and chose the positive-flux lobe of the preset
    preset = {"schema": SCHEMA_TAG, "jis": {**JIS_PRESET, "phi_ext1_rad": 0.0}}
    cases = [
        ("jis-sweep", preset, ("jis", "phi_ext1_rad"), "NaN"),
        ("jis-4port", preset, ("jis", "phi_ext1_rad"), "NaN"),
        ("jpc-sweep", {"schema": SCHEMA_TAG, "jpc": JIS_PLAIN}, ("jpc", "gamma_a_mhz"), "4" * 400),
        ("fit", {"schema": SCHEMA_TAG, "s21_sq": 0.36, "s12_sq": 0.0}, ("s12_sq",), "-1e999"),
    ]
    for command, doc, path, literal in cases:
        cfg = tmp_path / "config.json"
        cfg.write_text(with_literal(doc, path, literal))
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: config {cfg}: number {literal[:4]}" in err
        assert "is not finite" in err
    assert not list(tmp_path.glob("*.csv"))


def test_an_artifact_the_program_built_wrong_is_a_bug_not_a_config_error(tmp_path, monkeypatch):
    wrong = FitResult(rho=2.0, alpha_mag=0.5, residual=0.0, alpha_identifiable=True)
    monkeypatch.setattr(cli, "fit_rho_alpha", lambda **kwargs: wrong)
    with pytest.raises(ValueError, match="invalid fit_result at rho: 2.0 is greater"):
        run(tmp_path, "fit", {"s21_sq": 0.36, "s12_sq": 0.01})

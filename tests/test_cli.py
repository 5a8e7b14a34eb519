import hashlib
import json

import pytest

from paramix import cli
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


def test_selftest_runs_clean_and_repeats_byte_identically(tmp_path, capsys):
    assert cli.main(["selftest", "--out", str(tmp_path)]) == 0
    first = capsys.readouterr().out
    assert "12/12 criteria passed" in first
    assert cli.main(["selftest", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == first


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

import copy
import hashlib
import json
import re
import types
from pathlib import Path

import numpy as np
import pytest

import paramix
from paramix import acceptance, cli
from paramix.analysis import FitResult
from paramix.isolator import closed_form_from_config, composed_4port, feed_sin_phi, reference_device
from paramix.network import check_unitarity
from paramix.schemas import SCHEMA_TAG, validate_artifact, validate_config

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
    # the pump off is transparent at every |alpha|; at 1 with no line it
    # forms no internal loop, so it too fails only for want of a dip
    for alpha in (0.5, 1.0):
        out = tmp_path / str(alpha)
        jis = {**JIS_PLAIN, "rho": 0.0, "alpha_mag": alpha}
        rc = run(tmp_path, "jis-sweep", {"jis": jis, "grid": {"points": 11}}, out=out)
        assert rc == 3
        assert "numerical error: no dip" in capsys.readouterr().err
        # artifacts are written before the failure is reported
        side = json.loads((out / "jis_sweep.json").read_text())
        assert side["gamma_mhz"] is None
        assert "note" in side
        assert (out / "jis_sweep.csv").exists()


@pytest.mark.parametrize("points", [401, 40001])
def test_jis_sweep_with_the_pump_off_reports_no_dip(tmp_path, points):
    # |S12|^2 is 1 to rounding; its argmin once fell inside the grid and
    # was reported as an unbracketed width
    rc = run(tmp_path, "jis-sweep", {"jis": {**JIS_PLAIN, "rho": 0.0}, "grid": {"points": points}})
    assert rc == 3
    note = json.loads((tmp_path / "jis_sweep.json").read_text())["note"]
    assert note.startswith("no dip")


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


def test_which_jis_keys_move_the_4port_bytes(tmp_path):
    # jis-4port is the device at f_a. With a line its phase at the idler
    # frequency f_a + f_p = f_b moves every format's bytes through the
    # length, eps_eff and f_b; at zero delay those two keys move none. The
    # linewidths never do: both inverse susceptibilities are 1 at f_a.
    line = {**JIS_PLAIN, "alpha_mag": 0.51, "delay_length_um": 11.283, "delay_eps_eff": 7.418}
    free = {**line, "delay_length_um": 0.0}
    cases = [
        (line, {"delay_length_um": 11.3}, True),
        (line, {"delay_eps_eff": 7.5}, True),
        (line, {"f_b_ghz": 9.6}, True),
        (line, {"gamma_a_mhz": 3.0, "gamma_b_mhz": 700.0}, False),
        (free, {"delay_eps_eff": 7.5}, False),
        (free, {"f_b_ghz": 50.0}, False),
        (free, {"gamma_a_mhz": 3.0, "gamma_b_mhz": 700.0}, False),
    ]
    for fmt in ("touchstone", "csv", "json"):
        for n, (base, change, moves) in enumerate(cases):
            files = []
            for k, jis in enumerate((base, {**base, **change})):
                out = tmp_path / f"{fmt}{n}-{k}"
                assert run(tmp_path, "jis-4port", {"jis": jis}, fmt=fmt, out=out) == 0
                (artifact,) = out.iterdir()
                files.append(artifact.read_bytes())
            assert (files[0] != files[1]) == moves, (fmt, base["delay_length_um"], change)


@pytest.mark.parametrize("fmt", ["touchstone", "csv", "json"])
def test_jis_4port_at_alpha_one_is_the_unitary_composed_device(tmp_path, fmt):
    # the coupler then joins the taps to each other only; nothing is singular
    jis = {**JIS_PRESET, "alpha_mag": 1.0}
    assert run(tmp_path, "jis-4port", {"jis": jis}, fmt=fmt, out=tmp_path / "out") == 0
    assert len(list((tmp_path / "out").iterdir())) == 1
    config = reference_device(alpha_mag=1.0)
    closed = closed_form_from_config(config)
    assert check_unitarity(closed) <= 1e-12
    assert np.max(np.abs(closed.s - composed_4port(config).s)) <= 1e-12


@pytest.mark.parametrize("rho", [1e-170, 5e-324])
def test_jis_4port_at_alpha_one_with_no_line_has_no_underflow_cliff(tmp_path, rho):
    # L = t^2 underflows below rho of about 7.9e-163, but it cancels from
    # every entry: S21, S12 = -+i sin phi and S34 = S43 = 1 on both feeds
    for pump in ("P1", "P2"):
        jis = {**JIS_PLAIN, "rho": rho, "alpha_mag": 1.0, "pump_port": pump}
        out = tmp_path / pump
        assert run(tmp_path, "jis-4port", {"jis": jis}, fmt="json", out=out) == 0
        doc = json.loads((out / "jis_4port.json").read_text())
        s = np.array(doc["s_real"]) + 1j * np.array(doc["s_imag"])
        assert np.max(np.abs(s.conj().T @ s - np.eye(4))) <= 1e-12
        sin_phi = feed_sin_phi(pump)
        assert (s[1, 0], s[0, 1], s[2, 3], s[3, 2]) == (-1j * sin_phi, 1j * sin_phi, 1.0, 1.0)


def test_fit_command(tmp_path):
    rc = run(tmp_path, "fit", {"s21_sq": 0.36, "s12_sq": 0.01})
    assert rc == 0
    doc = json.loads((tmp_path / "fit.json").read_text())
    validate_artifact("fit_result", doc)
    assert doc["rho"] == pytest.approx(0.672508005, abs=1e-6)
    assert doc["alpha_mag"] == pytest.approx(0.288020101, abs=1e-6)
    assert doc["alpha_identifiable"] is True


def test_fit_at_rho_2e_5_is_identifiable(tmp_path):
    # 1 - p_pass is 1e-9 here, and |alpha| is still fixed by the pair
    assert run(tmp_path, "fit", {"s21_sq": 0.9999999990955883, "s12_sq": 0.9999999971660354}) == 0
    doc = json.loads((tmp_path / "fit.json").read_text())
    assert doc["rho"] == pytest.approx(2.0006e-5, rel=1e-4)
    assert doc["alpha_mag"] == pytest.approx(0.27802176, abs=1e-8)
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


def test_a_chain_that_disagrees_with_its_xor_exits_4(tmp_path, monkeypatch):
    # the second chain is odd but reads dark: the report is still written
    monkeypatch.setattr(cli, "chain_transmission", lambda chains: [0.0, 0.0, 1.0][: len(chains)])
    chains = [[{"parity": "even"}], [{"parity": "odd"}], [{"parity": "odd"}, {"parity": "even"}]]
    assert run(tmp_path, "parity", {"chains": chains}) == 4
    doc = json.loads((tmp_path / "parity.json").read_text())
    validate_artifact("parity_report", doc)
    assert doc["all_match"] is False
    assert [r["match"] for r in doc["rows"]] == [True, False, True]
    assert [r["t_mag"] for r in doc["rows"]] == [0.0, 0.0, 1.0]


def test_a_parity_chain_of_more_than_256_cells_is_a_config_error(tmp_path, capsys):
    validate_config("parity", {"schema": SCHEMA_TAG, "chains": [[{"parity": "odd"}] * 256]})
    assert run(tmp_path, "parity", {"chains": [[{"parity": "odd"}] * 257]}, out=tmp_path / "long") == 2
    # the path names the array; the message quotes its first 20 characters only
    err = capsys.readouterr().err.rstrip()
    assert err.endswith("at chains/0: [{'parity': 'odd'}, ... is too long")
    assert not (tmp_path / "long").exists()


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

    # an --out that is a file, or lies under one, cannot be a directory
    afile = tmp_path / "afile"
    afile.write_text("")
    for out in (afile, afile / "sub"):
        assert run(tmp_path, "fit", {"s21_sq": 0.36, "s12_sq": 0.01}, out=out) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot create output directory {out}: ")


def test_options_that_would_change_no_artifact_are_refused(tmp_path, capsys):
    assert run(tmp_path, "readout", {"records": RECORDS}, fmt="csv") == 2
    assert "config error: format 'csv' is not supported by readout" in capsys.readouterr().err
    # a single stage's flux and pump phase never reach its sweep
    for key in ("pump_phase_rad", "phi_ext_rad"):
        assert run(tmp_path, "jpc-sweep", {"jpc": {**JIS_PLAIN, key: 0.5}}) == 2
        err = capsys.readouterr().err
        assert "invalid config at jpc: Additional properties are not allowed" in err
    assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("readout.*"))


def test_the_readme_command_table_is_the_cli_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [line.split("|")[1:-1] for line in readme.splitlines() if line.startswith("| `")]
    table = {
        name.strip().strip("`"): tuple(f.strip() for f in formats.split(",") if f.strip())
        for name, _, formats in rows
    }
    assert list(table.items()) == [(name, formats) for name, (_, formats) in cli._COMMANDS.items()]


def test_the_readme_export_list_is_the_package_root():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"re-exports only (.*?)\. Everything else", readme, re.DOTALL).group(1)
    listed = re.findall(r"`([^`]+)`", sentence.split("these entry points:")[1])
    public = [
        name
        for name, value in vars(paramix).items()
        if not name.startswith("_")
        and not isinstance(value, types.ModuleType)
        and not (isinstance(value, type) and issubclass(value, Exception))
    ]
    assert sorted(listed) == sorted(public)


def test_values_the_models_reject_are_config_errors(tmp_path, capsys):
    # schema-valid, but the models need f_a < f_b and a flux inside the primary lobe
    inverted = {**JIS_PLAIN, "f_a_ghz": 9.567, "f_b_ghz": 6.84}
    assert run(tmp_path, "jpc-sweep", {"jpc": inverted}) == 2
    assert run(tmp_path, "jis-sweep", {"jis": inverted}) == 2
    assert run(tmp_path, "jis-sweep", {"jis": {**JIS_PRESET, "phi_ext1_rad": 9.0}}) == 2
    # linspace between two huge finite ends steps by inf and yields NaN fluxes
    grid = {"phi_start_rad": -1e308, "phi_stop_rad": 1e308, "points": 5}
    assert run(tmp_path, "flux-curve", {"grid": grid}) == 2
    err = capsys.readouterr().err
    assert "config error: need 0 < f_a_ghz < f_b_ghz" in err
    assert "config error: phi_ext_rad must be finite" in err


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
    # selftest writes no file, so it does not create --out either
    assert cli.main(["selftest", "--out", str(tmp_path / "out")]) == 0
    assert not (tmp_path / "out").exists()
    out = capsys.readouterr().out
    assert "12/12 criteria passed" in out
    # the session's own battery run is the independent repeat
    assert out == acceptance.render_table(sorted(battery.values(), key=lambda r: r.number)) + "\n"


def test_one_process_runs_every_command_to_the_golden_bytes(tmp_path):
    from test_golden import CASES, GOLDEN

    # the parser is built once and reused by every call; connect plans each
    # graph afresh
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
    "jpc-sweep": {"jpc": JIS_PLAIN, "grid": GRID},
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


DROP = object()


def with_node(doc, path, value):
    """A copy of doc with the node at path replaced by value, or deleted for DROP."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def with_literal(doc, path, literal):
    """The JSON text of doc with the number at path spelled as literal."""
    return json.dumps(with_node(doc, path, "@literal@")).replace('"@literal@"', literal)


def policy_breaches(tmp_path, command, text, name, allowed=(0, 2, 3, 4)):
    """(format, problem) of each run of command on the config text, one per format.

    A run breaks the policy when it raises, exits outside allowed, or leaves
    a NaN or infinity in an artifact (a CSV may hold -inf dB).
    """
    breaches = []
    for fmt in cli._COMMANDS[command][1]:
        cfg = tmp_path / f"{name}-{fmt}.json"
        cfg.write_text(text)
        out = tmp_path / f"{name}-{fmt}"
        try:
            rc = cli.main([command, "--config", str(cfg), "--out", str(out), "--format", fmt])
        except Exception as exc:
            breaches.append((fmt, f"raised {exc!r}"))
            continue
        if rc not in allowed:
            breaches.append((fmt, f"exit {rc}"))
        for artifact in out.iterdir() if out.exists() else ():
            found = NON_FINITE.findall(artifact.read_text())
            if any(not (m == "-inf" and artifact.suffix == ".csv") for m in found):
                breaches.append((fmt, f"{artifact.name} holds {found[:3]}"))
    return breaches


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
        # no float holds a token, and no grid is that long
        refused = literal in FUZZ_TOKENS or (path[-1] == "points" and literal in FUZZ_POINTS)
        text = with_literal(doc, path, literal)
        for breach in policy_breaches(tmp_path, command, text, str(k), (2,) if refused else (0, 2, 3, 4)):
            failures.append((path, literal, *breach))
    assert not failures


# Each key or item of a fuzz config in turn is dropped or replaced by a value
# of each JSON type; as with the numbers, no edit may end in a traceback, an
# exit code outside the policy, or a NaN or infinity in an artifact.
FUZZ_VALUES = ["x", 1.5, True, None, [], {}]


def node_paths(doc, path=()):
    """The path of every key and item under doc, parents before children."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from node_paths(value, path + (key,))


@pytest.mark.parametrize("command", FUZZ_CONFIGS)
def test_dropped_and_mistyped_nodes_exit_by_the_policy(tmp_path, capsys, command):
    doc = {"schema": SCHEMA_TAG, **FUZZ_CONFIGS[command]}
    failures = []
    for k, path in enumerate(node_paths(doc)):
        for j, value in enumerate([DROP, *FUZZ_VALUES]):
            text = json.dumps(with_node(doc, path, value))
            for breach in policy_breaches(tmp_path, command, text, f"{k}-{j}"):
                failures.append((path, "drop" if value is DROP else value, *breach))
    assert not failures
    assert "Traceback" not in capsys.readouterr().err


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


def test_a_non_finite_literal_is_echoed_whole_up_to_24_characters(tmp_path, capsys):
    doc = {"schema": SCHEMA_TAG, "s21_sq": 0.36, "s12_sq": 0.0}
    cfg = tmp_path / "config.json"
    for literal, shown in (
        ("1000000000000000000e9999", "1000000000000000000e9999"),
        ("10000000000000000000e9999", "10000000000000000000..."),
    ):
        cfg.write_text(with_literal(doc, ("s12_sq",), literal))
        assert cli.main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"number {shown} is not finite" in capsys.readouterr().err


def test_an_artifact_the_program_built_wrong_is_a_bug_not_a_config_error(tmp_path, monkeypatch):
    wrong = FitResult(rho=2.0, alpha_mag=0.5, residual=0.0, alpha_identifiable=True)
    monkeypatch.setattr(cli, "fit_rho_alpha", lambda **kwargs: wrong)
    with pytest.raises(ValueError, match="invalid fit_result at rho: 2.0 is greater"):
        run(tmp_path, "fit", {"s21_sq": 0.36, "s12_sq": 0.01})

"""Config parsing, CLI exit discipline, determinism, export formats."""

import hashlib
import re
from pathlib import Path

import pytest

from wptrx.cli import main
from wptrx.config import parse_config, parse_config_text, parse_value
from wptrx.errors import ConfigSyntax, MissingKey, UnknownKey
from wptrx.params import validate

CONFIGS = Path(__file__).resolve().parent.parent / "src" / "wptrx" / "configs"
TABLE2 = str(CONFIGS / "table2.cfg")


def test_prefix_folding():
    assert parse_value("1000u", 1) == pytest.approx(1e-3, rel=1e-12)
    assert parse_value("3.63n", 1) == pytest.approx(3.63e-9, rel=1e-12)
    assert parse_value("200k", 1) == pytest.approx(2e5, rel=1e-12)
    assert parse_value("5m", 1) == pytest.approx(5e-3, rel=1e-12)
    assert parse_value("2M", 1) == pytest.approx(2e6, rel=1e-12)
    assert parse_value("1.5e-7", 1) == pytest.approx(1.5e-7, rel=1e-12)
    with pytest.raises(ConfigSyntax):
        parse_value("12 pF", 1)
    with pytest.raises(ConfigSyntax):
        parse_value("fast", 1)


def test_shipped_prototype_config_parses():
    rc = parse_config(TABLE2)
    vp = validate(rc.params)
    assert vp.l_s == pytest.approx(172e-6, rel=1e-12)
    assert vp.c_s == pytest.approx(3.63e-9, rel=1e-12)
    assert vp.c_o == pytest.approx(1e-3, rel=1e-12)
    assert vp.f_s == pytest.approx(200e3, rel=1e-12)
    assert vp.c_sum == pytest.approx(9e-9, rel=1e-12)
    assert rc.v_ref == 24.0
    assert rc.duty == pytest.approx(0.532)
    assert vp.warnings == ()


def test_config_rejects_duplicates_and_unknowns():
    with pytest.raises(ConfigSyntax):
        parse_config_text("l_s = 1u\nl_s = 2u\n")
    with pytest.raises(UnknownKey):
        parse_config_text("coil = 172u\n")
    # keys that nothing reads are rejected like any other unknown key
    for key in ("seed", "sample_rate"):
        with pytest.raises(UnknownKey):
            parse_config_text(f"{key} = 1\n")
    with pytest.raises(MissingKey):
        parse_config_text("l_s = 172u\n")
    with pytest.raises(ConfigSyntax):
        parse_config_text("l_s 172u\n")


def test_cli_validate_ok(capsys):
    assert main(["validate", "--config", TABLE2]) == 0
    out = capsys.readouterr().out
    assert "c_sum" in out


def test_cli_exit_code_config_error(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("l_s = 172u\nl_s = 172u\n")
    assert main(["validate", "--config", str(bad)]) == 2
    zero = tmp_path / "zero.cfg"
    zero.write_text(
        "l_s = 172u\nc_s = 3.63n\nc_s1 = 4.5n\nc_d1 = 4.5n\nc_o = 1000u\n"
        "r_load = 38.09\nf_s = 200k\ni_ls_amp = 0\n")
    assert main(["validate", "--config", str(zero)]) == 2


def test_cli_exit_code_numerical_failure(tmp_path, capsys):
    # a heavy load pushes the exact commutation past reach: the node swing
    # cannot cover the output voltage
    cfg = tmp_path / "hard.cfg"
    cfg.write_text(
        "l_s = 172u\nc_s = 3.68n\nc_s1 = 4.5n\nc_d1 = 4.5n\nc_o = 100u\n"
        "r_load = 3000\nf_s = 200k\ni_ls_amp = 1\n")
    assert main(["steady", "--config", str(cfg), "--duty", "0.55",
                 "--exact"]) == 3


def test_cli_exit_code_unknown(capsys):
    assert main(["frobnicate"]) == 4
    assert main(["reproduce", "fig99"]) == 4


def test_cli_steady_and_bode_outputs(tmp_path, capsys):
    cfg = TABLE2
    out = tmp_path / "o1"
    assert main(["steady", "--config", cfg, "--sweep", "0.5:0.7:0.05",
                 "--out", str(out)]) == 0
    lines = (out / "steady.csv").read_text().splitlines()
    assert lines[0] == "duty,t_f,phase_delay_norm,v_o,regulable"
    assert len(lines) == 6
    assert main(["bode", "--config", cfg, "--out", str(out)]) == 0
    blines = (out / "bode.csv").read_text().splitlines()
    assert blines[0] == "f_hz,mag_db,phase_deg"
    assert len(blines) == 92


def test_cli_reproduce_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["reproduce", "fig9", "--out", str(out1)]) == 0
    assert main(["reproduce", "fig9", "--out", str(out2)]) == 0
    assert (out1 / "fig9.csv").read_bytes() == (out2 / "fig9.csv").read_bytes()
    header = (out1 / "fig9.csv").read_text().splitlines()[0]
    assert header == "f_hz,ol_mag_db,ol_phase_deg,cl_mag_db,cl_phase_deg"


# sha256 of the design-figure tables.  These figures come from the analytic,
# averaged and small-signal layers only, so a change to the switched
# simulator must leave them byte-identical.  Digests taken before the
# closed-form fall time and the periodic-steady-state solve were introduced
# (CPython 3.11, numpy 2.4, x86-64 Linux).
DESIGN_TABLE_SHA256 = {
    "fig4a": {"fig4a.csv": "13b608d5e8a2545c5ce6043dc46a0fe1"
                           "cdb46670c2b1dd910021f5c8daee9e82"},
    "fig5": {"fig5.csv": "c44a501ae7191cc53259b220d2687074"
                         "1ba6eb87fc097167cd65a3104d2abc78",
             "fig5_summary.csv": "68bbe385cab0ee5893524885fe99ef65"
                                 "fd7159b3e56bfc7c534360eab1dad1ef"},
    "fig7": {"fig7_analytic.csv": "0b53cd48755d29c8b283f5d62e772eff"
                                  "d334037b438873bb218d5f8e06c2f801",
             "fig7_oracle.csv": "38f309c5f7ae12ba906c2d637530e409"
                                "49a694e225707e15d20e1fb4c7cca40f"},
    "fig9": {"fig9.csv": "709fcbf9d27ba44da6c962d7907320b1"
                         "b73d70ee80ec43db23b5bfba1313e2aa"},
}


@pytest.mark.parametrize("figure", sorted(DESIGN_TABLE_SHA256))
def test_design_figure_tables_are_pinned(figure, tmp_path):
    assert main(["reproduce", figure, "--out", str(tmp_path)]) == 0
    for name, digest in DESIGN_TABLE_SHA256[figure].items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, name


# sha256 of switched-simulator tables at the table2 point: (argv, digests).
# A refactor of the simulator must leave them byte-identical.  Digests taken
# with the periodic-steady-state start, before the simulator segments were
# merged into one closed form (CPython 3.11, numpy 2.4, x86-64 Linux).
SIMULATOR_TABLE_SHA256 = {
    "fig13": (["reproduce", "fig13"], {
        "fig13.csv": "c01657c955ceda807d065ce87a384e20"
                     "a3451471b9c5bbd1bbec19784fc3f22d",
        "fig13_events.csv": "55126daae59a8a673ea52b85f572d2ae"
                            "b5a85ee631b3eaf587d8dcaf1289a10b"}),
    "fig14": (["reproduce", "fig14"], {
        "fig14_i_ls.csv": "f0e88528e3909d028c2cf2f987fdf999"
                          "f55223f30d7e4baa68068e21929350e8",
        "fig14_summary.csv": "2a3600feab13bcbb4861e4537fdc782b"
                             "67fbfc47817fa94ba9bfdfe365ec0f0d",
        "fig14_v_cd1.csv": "d69c51d7a66a950faf40d244336eefba"
                           "c1a2bf7e6f7d8ed52da75977a61f7b5a"}),
    "simulate": (["simulate", "--config", TABLE2, "--cycles", "20"], {
        "diagnostics.csv": "e2e6b0e97ac3d996efe3113dbdc713b2"
                           "cacd68f244acec64a8dec698ccbb057a",
        "events.csv": "e95e4efdd60e3c48ec72e28ec61cfe2a"
                      "8e4ba3d7f03fc5054b29e01b8097a8c1",
        "waveform.csv": "1648f033585c1de806498ca7f77f4735"
                        "e350e3b32f79403095e2d917c18e3aba"}),
    "load_step": (["transient", "--config", TABLE2,
                   "--scenario", "load_step"], {
        "load_step.csv": "12d75d4f714777874061b4b40888d6b4"
                         "85477e88ac9930155bf7314042842f0c"}),
}


@pytest.mark.parametrize("command", sorted(SIMULATOR_TABLE_SHA256))
def test_simulator_tables_are_pinned(command, tmp_path):
    argv, digests = SIMULATOR_TABLE_SHA256[command]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    for name, digest in digests.items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, name


def test_cli_reproduce_fig7_grid(tmp_path):
    out = tmp_path / "f7"
    assert main(["reproduce", "fig7", "--out", str(out)]) == 0
    for name in ("fig7_analytic.csv", "fig7_oracle.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "f_hz,mag_db,phase_deg"
        assert len(lines) == 92  # 30 points/decade over 3 decades
        first = float(lines[1].split(",")[0])
        last = float(lines[-1].split(",")[0])
        assert first == pytest.approx(10.0, rel=1e-9)
        assert last == pytest.approx(10e3, rel=1e-9)
    assert (out / "plot_tables.py").exists()


def test_cli_simulate_table_format(tmp_path):
    cfg = TABLE2
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--cycles", "3",
                 "--out", str(out)]) == 0
    raw = (out / "waveform.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "t,i_ls,v_cs1,v_cd1,v_o,gate,state"
    row = lines[2].split(",")
    assert re.fullmatch(r"-?\d\.\d{11}e[+-]\d+", row[1])
    assert row[5] in ("0", "1") and row[6] in "12345"
    elines = (out / "events.csv").read_text().splitlines()
    assert elines[0] == "t,event"
    names = {ln.split(",")[1] for ln in elines[1:]}
    assert names <= {"gate_on", "gate_off", "cs1_zero", "cd1_zero",
                     "ils_zero", "cycle_start", "hard_switch"}

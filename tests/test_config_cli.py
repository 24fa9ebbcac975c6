"""Config parsing, CLI exit discipline, determinism, export formats."""

import hashlib
import importlib.util
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wptrx import cli, simulator
from wptrx.cli import main
from wptrx.config import (RunConfig, parse_config, parse_config_text,
                          parse_value)
from wptrx.errors import ConfigSyntax, MissingKey, UnknownKey
from wptrx.params import validate
from wptrx.table import (_TABLE_BLOCK_ROWS, _float_cells, _int_cells,
                         write_table)

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


def test_absent_run_keys_take_the_run_config_defaults():
    # only the receiver keys: every run key is RunConfig's own default
    text = "".join(line + "\n" for line in Path(TABLE2).read_text()
                   .splitlines() if line.split("=")[0].strip() not in
                   ("v_ref", "f_c", "i_ls_ff", "duty", "phase_delay_norm"))
    rc = parse_config_text(text)
    assert rc == RunConfig(params=rc.params)
    assert (rc.v_ref, rc.f_c) == (24.0, 1000.0)
    assert rc.i_ls_ff is rc.duty is rc.phase_delay_norm is None


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
    capsys.readouterr()
    # an --out that is a file, or lies under one, is an error line and 2,
    # not a traceback
    for argv in (["reproduce", "fig5", "--out", str(bad)],
                 ["steady", "--config", TABLE2, "--duty", "0.5",
                  "--out", str(bad / "x")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # a --sample-rate whose grid holds no sample on the run is rejected
    # before any table is written, not written as a header-only waveform
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", TABLE2, "--cycles", "2",
                 "--sample-rate", "1e3", "--out", str(sim_out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sample_rate ") and err.count("\n") == 1
    assert not sim_out.exists()


def _table2_with(tmp_path, key, value):
    """table2.cfg with ``key = value`` in place of its own line."""
    text = "".join(ln + "\n" for ln in Path(TABLE2).read_text().splitlines()
                   if not ln.startswith(key + " "))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + f"{key} = {value}\n")
    return cfg


@pytest.mark.parametrize("key", ["v_ref", "f_c", "i_ls_ff"])
def test_cli_rejects_non_finite_controller_keys(key, tmp_path, capsys):
    # 1e999 parses as inf; it is rejected where the config is read, not
    # turned into inf gains, a zero gate delay or a math domain error
    cfg = _table2_with(tmp_path, key, "1e999")
    for argv in (["design"], ["transient", "--scenario", "load_step",
                              "--out", str(tmp_path)]):
        assert main(argv + ["--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
    assert not (tmp_path / "load_step.csv").exists()


@pytest.mark.parametrize("argv", [
    ["design"], ["transient", "--scenario", "startup"],
    ["transient", "--scenario", "load_step"]])
def test_cli_rejects_zero_v_ref(argv, tmp_path, capsys):
    # no loop regulates to 0 V: its equilibrium duty is 1, outside (0, 1).
    # These once exited 3 (ZeroGainOperatingPoint) or 2 naming a derived
    # start value, never the key at fault
    cfg = _table2_with(tmp_path, "v_ref", "0")
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert "v_ref" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("duty", "2"), ("duty", "-1"), ("duty", "1e999"),
    ("phase_delay_norm", "0.25"), ("phase_delay_norm", "1e999")])
def test_cli_rejects_out_of_range_operating_point(key, value, tmp_path,
                                                  capsys):
    # duty must lie in (0, 1) and f_s*t_f in [0, 0.25): design used to print
    # gains for duty = 2 and die with a math domain error on 1e999
    cfg = _table2_with(tmp_path, key, value)
    for command in ("design", "bode"):
        assert main([command, "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["steady", "--duty", "2"], ["steady", "--duty", "nan"],
    ["steady", "--duty", "inf"], ["steady", "--sweep", "0.5:1.5:0.5"],
    ["simulate", "--duty", "1.5", "--cycles", "5"], ["steady"]])
def test_cli_rejects_out_of_range_duty_flags(argv, tmp_path, capsys):
    # a duty outside (0, 1) is a configuration error wherever it comes
    # from; these flags used to exit 3 as a numerical failure
    text = "".join(ln + "\n" for ln in Path(TABLE2).read_text().splitlines()
                   if not ln.startswith("duty "))
    cfg = tmp_path / "no_duty.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "duty" in err
    if argv == ["steady"]:  # neither the flags nor the config give one
        assert "--duty" in err and "--sweep" in err
    assert not out.exists()


def test_cli_simulate_rejects_zero_cycles(tmp_path, capsys):
    # a cycle count is a usage error (2), not a numerical failure (3)
    assert main(["simulate", "--config", TABLE2, "--cycles", "0",
                 "--out", str(tmp_path / "sim")]) == 2
    assert "n_cycles" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["-5", "nan", "inf"])
def test_cli_simulate_rejects_bad_sample_rate(rate, tmp_path, capsys):
    # a negative rate wrote a header-only waveform, nan and inf died with
    # an uncaught ValueError/OverflowError; 0 keeps the default
    out = tmp_path / "sim"
    assert main(["simulate", "--config", TABLE2, "--cycles", "2",
                 "--sample-rate", rate, "--out", str(out)]) == 2
    assert "sample_rate" in capsys.readouterr().err
    assert not (out / "waveform.csv").exists()


def test_cli_exit_code_numerical_failure(tmp_path, capsys, monkeypatch):
    # an orbit solve allowed no Newton step cannot settle
    monkeypatch.setattr(simulator, "_MAX_ORBIT_ITER", 0)
    assert main(["simulate", "--config", TABLE2, "--cycles", "5",
                 "--out", str(tmp_path)]) == 3
    assert "NoConvergence" in capsys.readouterr().err


def test_cli_steady_exact_solves_at_light_load(tmp_path, capsys):
    # the exact operating point exists at every duty: at this light load the
    # fall takes a fifth of a period, well below the commutation limit
    cfg = tmp_path / "light.cfg"
    cfg.write_text(
        "l_s = 172u\nc_s = 3.68n\nc_s1 = 4.5n\nc_d1 = 4.5n\nc_o = 100u\n"
        "r_load = 3000\nf_s = 200k\ni_ls_amp = 1\n")
    assert main(["steady", "--config", str(cfg), "--duty", "0.55",
                 "--exact", "--out", str(tmp_path)]) == 0
    row = (tmp_path / "steady.csv").read_text().splitlines()[1].split(",")
    duty, t_f, fst, v_o, regulable = map(float, row)
    assert v_o == pytest.approx(68.2998, abs=1e-4)
    assert fst == pytest.approx(0.2135, abs=1e-4)
    assert regulable == 1


def test_cli_simulate_runs_where_the_delay_leaves_the_window(tmp_path,
                                                            capsys):
    # table2 at a tenth of its load: the exact operating point at D = 0.3
    # has f_s*t_f = 0.32, beyond the duty window but below half a period,
    # and simulate settles its orbit there
    changes = {"r_load": "3k", "duty": "0.3", "phase_delay_norm": "0.02"}
    lines = [line for line in Path(TABLE2).read_text().splitlines()
             if line.split("=", 1)[0].strip() not in changes]
    cfg = tmp_path / "lighter.cfg"
    cfg.write_text("".join(f"{line}\n" for line in lines)
                   + "".join(f"{k} = {v}\n" for k, v in changes.items()))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--cycles", "5",
                 "--out", str(out)]) == 0
    residual = float(re.search(r"orbit residual = (\S+) V",
                               capsys.readouterr().out).group(1))
    assert residual <= simulator.V_ORBIT_TOL
    head, *rows = (out / "diagnostics.csv").read_text().splitlines()
    v_o_mean = [float(r.split(",")[head.split(",").index("v_o_mean")])
                for r in rows]
    assert len(v_o_mean) == 5
    assert v_o_mean == pytest.approx([300.42] * 5, abs=0.01)


def test_cli_exit_code_unknown(capsys):
    assert main(["frobnicate"]) == 4
    assert main(["reproduce", "fig99"]) == 4


@pytest.mark.parametrize("sweep", ["0.1:0.2", "0.1:0.9:0", "nan:0.5:0.1",
                                   "0.9:0.1:0.1", "0.1:inf:0.1",
                                   "0.1:0.9:-0.1", "0:1:1e-320", "a:b:c"])
def test_cli_steady_rejects_malformed_sweep(sweep, tmp_path, capsys):
    # each used to raise (exit 1) or write a header-only table (exit 0)
    assert main(["steady", "--config", TABLE2, "--sweep", sweep,
                 "--out", str(tmp_path)]) == 2
    assert "sweep" in capsys.readouterr().err
    assert not (tmp_path / "steady.csv").exists()


def test_digest_tool_covers_every_command_and_figure():
    # tools/table_digests.py is the byte-identity check for refactors; it
    # must run every figure and every command the CLI has
    spec = importlib.util.spec_from_file_location(
        "table_digests", CONFIGS.parents[2] / "tools" / "table_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.FIGURES == cli.FIGURES
    assert set(cli.COMMANDS) <= {argv[0] for _, argv, _ in tool.RUNS}


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


def test_cli_prints_the_bytes_it_writes(tmp_path, capsys):
    for argv, name in ((["steady", "--sweep", "0.5:0.7:0.05"], "steady.csv"),
                       (["bode"], "bode.csv")):
        assert main(argv + ["--config", TABLE2]) == 0
        printed = capsys.readouterr().out.encode()
        assert main(argv + ["--config", TABLE2, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""
        assert printed == (tmp_path / name).read_bytes()


def test_table_writer_cell_formats(tmp_path):
    # one format per column, chosen from the column's element type
    columns = [("a", "bc"), (True, False), (np.True_, np.False_), (7, -12),
               (np.int8(-3), np.int8(4)),
               np.array([2 ** 64 - 1, 2 ** 63], np.uint64),
               np.array([255, 0], np.uint8), (1.5, -0.0),
               (np.float64(-0.25), np.float64(1e300)), (math.nan, -math.inf),
               (math.inf, 2.0)]
    write_table(str(tmp_path), "t.csv", "s,b,nb,i,ni,u64,u8,f,nf,nan,inf",
                columns)
    assert (tmp_path / "t.csv").read_bytes() == (
        b"s,b,nb,i,ni,u64,u8,f,nf,nan,inf\n"
        b"a,1,1,7,-3,18446744073709551615,255,1.50000000000e+00,"
        b"-2.50000000000e-01,nan,inf\n"
        b"bc,0,0,-12,4,9223372036854775808,0,-0.00000000000e+00,"
        b"1.00000000000e+300,-inf,2.00000000000e+00\n")
    write_table(str(tmp_path), "empty.csv", "x,y", [[], []])
    assert (tmp_path / "empty.csv").read_bytes() == b"x,y\n"
    write_table(str(tmp_path), "no_float.csv", "s,i", [["a"], [3]])
    assert (tmp_path / "no_float.csv").read_bytes() == b"s,i\na,3\n"
    # integer cells are b"%d" of each value: the int64 extremes, a column of
    # repeated values (each formatted once and gathered), a bool column and
    # unsigned values above 2**63 gathered from their value table
    info = np.iinfo(np.int64)
    ints = np.array([info.min, info.max, -1, 0, 7, -1, 0, info.min],
                    np.int64)
    repeated = np.full(len(ints), -42, np.int64)
    flags = np.array([True, False, False, True, True, False, True, False])
    high = np.array([2 ** 64 - 1 - k % 3 for k in range(len(ints))],
                    np.uint64)
    write_table(str(tmp_path), "ints.csv", "i,r,b,u",
                [ints, repeated, flags, high])
    assert (tmp_path / "ints.csv").read_bytes() == b"i,r,b,u\n" + b"".join(
        b"%d,%d,%d,%d\n" % row for row in zip(
            ints.tolist(), repeated.tolist(), flags.tolist(), high.tolist()))


_INFO64 = np.iinfo(np.int64)


@pytest.mark.parametrize("column", [
    np.array([0, 10 ** 12, 5], np.int64),
    np.array([0, 5000, 2], np.int64),
    np.array([_INFO64.min, _INFO64.max], np.int64),
    np.array([_INFO64.max, _INFO64.min, _INFO64.max], np.int64),
    np.array([2 ** 64 - 1, 0, 2 ** 63], np.uint64),
    np.array([True, False, True]),
    np.array([-128, 127, -1, 0] * 70, np.int8),
    np.array([-7, -3, -5, -3, -7], np.int64),
    np.full(5, -42, np.int16),
], ids=["wide", "span-5000", "int64-extremes", "int64-extremes-3", "uint64",
        "bool", "int8-full-span", "negative", "constant"])
def test_int_cells_build_no_table_wider_than_the_column(column):
    # a column whose span exceeds its length is formatted value by value; a
    # table from its least to its greatest value would take the span's size
    tracemalloc.start()
    try:
        cells = _int_cells(column)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cells.tolist() == [b"%d" % v for v in column.tolist()]
    assert peak < 64_000


BLOCK = _TABLE_BLOCK_ROWS


@pytest.mark.parametrize(
    "n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 2 * BLOCK + 3])
def test_table_writer_blocks_match_per_row_format(tmp_path, capsys, n):
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-14, 14, n)
    floats = np.where(np.arange(n) % 3 == 0, bits, scaled)
    # cells that widen after the first block: 1-digit then 7-digit ints, so
    # the record is remade, and strings one and then five and ten bytes
    # long, NUL-padded to the column's width in every block
    widening = np.array([k % 10 if k < BLOCK else 10 ** 6 + k % 7
                         for k in range(n)], np.int64)
    words = ["x" if k < BLOCK else "wider" * (k // BLOCK) for k in range(n)]
    columns = [["ab"[: k % 3] + "event" * (k % 2) for k in range(n)],
               [bool(k % 2) for k in range(n)],
               rng.integers(0, 2, n).astype(np.bool_),
               [int(v) for v in rng.integers(-10 ** 15, 10 ** 15, n)],
               rng.integers(-128, 128, n).astype(np.int8),
               floats, widening, words]
    header = "s,b,nb,i,ni,f,wi,ws"
    # the reference: the per-row rule, one %-format per column
    row_format = "%s,%d,%d,%d,%d,%.11e,%d,%s\n"
    expected = (header + "\n" + "".join(
        row_format % row for row in zip(*columns))).encode()
    write_table(str(tmp_path), "t.csv", header, columns)
    assert (tmp_path / "t.csv").read_bytes() == expected
    write_table(None, "t.csv", header, columns)
    assert capsys.readouterr().out.encode() == expected


def test_table_writer_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError, match=r"table t\.csv.*\[3, 2\]"):
        write_table(str(tmp_path), "t.csv", "x,y", [[1.0, 2.0, 3.0], [1, 2]])
    assert not (tmp_path / "t.csv").exists()


# the %.11e kernel against % itself
_NEAR_TIES = st.builds(lambda m, n: float(f"{m - m % 10 + 5}e{n}"),
                       st.integers(10 ** 12, 10 ** 13 - 1),
                       st.integers(-40, 40))
# |k| = 22 and 23, k = 11 - floor(log10|x|): the kernel's scaling limits
_SCALE_EDGES = st.builds(lambda m, e: m * 10.0 ** e,
                         st.floats(1.0, 10.0, exclude_max=True),
                         st.sampled_from([-12, -11, 33, 34]))
# signed zeros, non-finite values, subnormals, the |k| = 22/23 edges
# (1e-11 and 1e34), values whose 12 digits round up to the next power of
# ten and exact ties, which % rounds half to even
_EDGES = [0.0, math.nan, math.inf, 5e-324, 2.5e-320, 1e-310,
          math.nextafter(2.2250738585072014e-308, 0.0),
          2.2250738585072e-308, 1e-11,
          math.nextafter(1e-11, 0.0), 1e-12, 1e33, 1e34,
          math.nextafter(1e34, 0.0), 9.999999999995, 9.999999999995e5,
          9.9999999999996, 9.9999999999996e-7, 9.99999999999951e15,
          9.9999999999999e33, 100000000000.5, 100000000001.5]


def _scale_cases() -> list:
    """For every scale k = 11 - e in [-22, 22] the kernel formats itself:
    a plain value; values whose 12 digits end in a run of nines before a
    5, so that rounding carries out of the last pair, out of each 4-digit
    word, out of the lead's second digit and to the next power of ten; the
    power of ten and the float below it; and ties (n + 1/2) / 10**k, exact
    where float64 holds them (k <= 17) and nearest to one elsewhere."""
    out = []
    for k in range(-22, 23):
        e = 11 - k
        out.append(float(f"1.23456789012e{e}"))
        for nines in (2, 6, 10, 11, 12):
            digits = "123456789012"[:12 - nines] + "9" * nines
            out.append(float(f"{digits[0]}.{digits[1:]}5e{e}"))
        power = float(f"1e{e}")
        out += [power, math.nextafter(power, 0.0)]
        out += [float(Fraction(2 * n + 1, 2) / Fraction(10) ** k)
                for n in (10 ** 11, 123456789999, 129999999999,
                          10 ** 12 - 1)]
    return out


_SCALES = _scale_cases()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.floats(), _NEAR_TIES, _SCALE_EDGES),
                max_size=40))
@example(_EDGES + [-v for v in _EDGES])
@example(_SCALES + [-v for v in _SCALES])
def test_float_kernel_matches_percent_format(values):
    cells = _float_cells(np.array(values, dtype=np.float64))
    assert [c.replace(b"\0", b"") for c in cells.tolist()] == \
        [b"%.11e" % v for v in values]


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
# (CPython 3.11, numpy 2.4, x86-64 Linux).  fig4a's and fig5's re-taken when
# the operating point became a bracketed Newton root instead of a damped
# fixed-point loop: v_o moved by <= 2.5e-7 V in fig4a.csv and fig5.csv and
# peak_reduction_v by 2e-9 V in fig5_summary.csv, within the old loop's own
# 1e-6 V stopping error.
DESIGN_TABLE_SHA256 = {
    "fig4a": {"fig4a.csv": "77927eb3489bb54d8f596d12741809ea"
                           "49d356b3fe6023b68082016d6572abfc"},
    "fig5": {"fig5.csv": "7e6264124cfbef793549e6e88e9bcf10"
                         "4351a8c5b728780c9e02953f7f959f26",
             "fig5_summary.csv": "e60e5320a0cc2e437b3f15e9afc0399c"
                                 "54a6615392ec6fd1fdf9a6639b213e22"},
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
# A refactor of the simulator must leave them byte-identical.  Digests
# re-taken when the commutation events moved from bisection to closed form
# and Newton and V_ORBIT_TOL went from 1e-9 to 1e-11 V; fig14_i_ls.csv did
# not move.  fig13's and fig14's re-taken when their orbit seed became the
# averaged output at the commanded delay, which moves them by <= 9.3e-9 V
# (CPython 3.11, numpy 2.4, x86-64 Linux).  fig14's re-taken when its
# spectrum became the closed-form integral of one orbit cycle instead of a
# correlation of 32 cycles at 256 samples each: the sampled v_cd1 aliased
# (17 % off at k = 29, THD 0.44509 for the exact 0.44638), and i_ls now has
# exactly one harmonic (THD 0, where sampling left 1.7e-14).  simulate's
# re-taken when the operating point became a bracketed Newton root: its gate
# delay is the exact fall time at the solved v_o, which moved by 1e-8 V, so
# v_cs1 moved by <= 1.6e-7 V, v_o by <= 1e-8 V and the events by 1e-15 s.
SIMULATOR_TABLE_SHA256 = {
    "fig13": (["reproduce", "fig13"], {
        "fig13.csv": "1840dde857e99086684b06483bc8a539"
                     "84d35e62db1964f82ccc17b51e6c5f0f",
        "fig13_events.csv": "1f1d314b85404204a69fe8f3e5f733f7"
                            "524fd889069f306b8f4b7a8cf1bbe8a5"}),
    "fig14": (["reproduce", "fig14"], {
        "fig14_i_ls.csv": "06a4e49a95e70eed03a7cfa384aee1d9"
                          "a93a10b162e473b0d575bf9cdf4e6ca1",
        "fig14_summary.csv": "6e77cfa68233999cb2ce900277904b69"
                             "c02ae55471ad608b227c37397c5e9372",
        "fig14_v_cd1.csv": "5a00f60d7ed00dd623dcc0101a7ce6fd"
                           "2d8fe193015f9d1af9f34267fe836c54"}),
    "simulate": (["simulate", "--config", TABLE2, "--cycles", "20"], {
        "diagnostics.csv": "2e292f0d4b5fefa561ae1c17a3ff495d"
                           "6460fb368ef46e922b46d502a46352ef",
        "events.csv": "0d75ffd40ff43d1b1b7fb9d172391826"
                      "622e9ed3dd99cea0c24ab9778d4f7c69",
        "waveform.csv": "82664884e8dd73ef1785b2db4e8997a4"
                        "135a4de23071a2d38fb93412db646cc3"}),
    "load_step": (["transient", "--config", TABLE2,
                   "--scenario", "load_step"], {
        "load_step.csv": "b9807a72c878910d764a3ad1efb9840b"
                         "c6ab7f87852c1fea04f2fca864faafb1"}),
}


# sha256 of the closed-loop fig17 and fig20 tables and of the steady, bode
# and design tables at the table2 point.  Digests taken before every table
# was routed through the one table writer; fig20's re-taken with the
# simulator ones above; fig17's taken when its rows became closed-loop
# orbits (CPython 3.11, numpy 2.4, x86-64 Linux).  steady's re-taken when
# the operating point became a bracketed Newton root: v_o moved by
# <= 1.9e-7 V and phase_delay_norm by <= 4.1e-10, within the old loop's own
# 1e-6 V stopping error.  fig17's re-taken when the orbit's duty became
# one bracketed root, solved to adjacent floats: duty moved by <= 1e-9 and
# reg_error by <= 4.4e-13 V, within the old duty secant's 1e-11 V stop.
COMMAND_TABLE_SHA256 = {
    "fig17": (["reproduce", "fig17"], {
        "fig17.csv": "ed07189967ac5fd3f8f7e30cac321a27"
                     "37a6245da427802f5d4185fa8840b4d5"}),
    "fig20": (["reproduce", "fig20"], {
        "fig20.csv": "3ae074ab2cc07f910077e341d315779a"
                     "1f4db7d6582b3d6b8e4be43010d68172"}),
    "steady": (["steady", "--config", TABLE2, "--sweep", "0.5:0.7:0.05"], {
        "steady.csv": "35cbadde89278f5f5197aff928ed907e"
                      "06e35089b389bb3924478ae295b98d5f"}),
    "bode": (["bode", "--config", TABLE2], {
        "bode.csv": "d1545019f321e01cf63a117aa31b704d"
                    "fb7c928130579071e81ceb5dd6017f24"}),
    "design": (["design", "--config", TABLE2], {
        "design.csv": "c9873b4700e6e7fe573c102ead7e3736"
                      "c25e3d85cb88bfa820a2e581ab6811b8"}),
}


def _assert_pinned(argv, digests, out):
    assert main(argv + ["--out", str(out)]) == 0
    for name, digest in digests.items():
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == digest, name


@pytest.mark.parametrize("command", sorted(SIMULATOR_TABLE_SHA256))
def test_simulator_tables_are_pinned(command, tmp_path):
    _assert_pinned(*SIMULATOR_TABLE_SHA256[command], tmp_path)


@pytest.mark.parametrize("command", sorted(COMMAND_TABLE_SHA256))
def test_command_tables_are_pinned(command, tmp_path):
    _assert_pinned(*COMMAND_TABLE_SHA256[command], tmp_path)


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

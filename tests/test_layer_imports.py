"""Which layers the package and each command load, and the package's
exported names."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wptrx

SRC = Path(wptrx.__file__).resolve().parent.parent
TABLE2 = SRC / "wptrx" / "configs" / "table2.cfg"

# defining module -> the names ``wptrx`` exported from it when every layer
# was imported eagerly, in that import order
EXPORTS = {
    "analytic": ["OperatingPoint", "duty_bounds", "duty_for_target_vo",
                 "fall_time_approx", "fall_time_exact", "input_current",
                 "optimal_duty", "phase_angle", "resonant_cap_voltage_drop",
                 "rise_time", "solve_operating_point", "steady_state_vo"],
    "averaged": ["AveragedState", "AveragedTrajectory", "DutySchedule",
                 "TfMode", "averaged_rhs", "integrate_averaged",
                 "vo_vs_duty_curve"],
    "config": ["RunConfig", "parse_config", "parse_config_text"],
    "control": ["ClosedLoopOrbit", "Scenario", "TransientRecord",
                "closed_loop_orbit", "closed_loop_run", "feedforward_tf",
                "pi_step", "ramp_profile", "step_profile"],
    "params": ["ReceiverParams", "ValidatedParams", "min_output_cap",
               "ripple_estimate", "size_inductor", "size_series_cap",
               "validate"],
    "simulator": ["CycleColumns", "DiagnosticColumns", "EventColumns",
                  "ModulationCommand", "PeriodicOrbit", "RunResult",
                  "SegmentTable", "SpectrumResult", "SwitchCycleState",
                  "SwitchingState", "Waveform", "cycle_diagnostics",
                  "periodic_steady_state", "run", "sample_waveform",
                  "spectrum"],
    "smallsignal": ["BodePoint", "PiGains", "TransferFunction1P", "bode",
                    "bode_points", "design_pi", "loop_margins",
                    "loop_response", "perturb_bode_oracle", "plant_tf"],
}


def test_package_exports_resolve_to_their_defining_modules():
    assert wptrx.__all__ == [n for names in EXPORTS.values() for n in names]
    # run is the one way to step the simulator and RunResult the one record
    # of a cycle: the one-cycle call and its summary record are gone
    for gone in ("step_cycle", "CycleSummary"):
        with pytest.raises(AttributeError, match=gone):
            getattr(wptrx, gone)
    listed = dir(wptrx)
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"wptrx.{module}")
        for name in names:
            assert getattr(wptrx, name) is getattr(home, name), name
            assert name in listed, name


def test_steady_state_layer_names_are_bound_by_the_import_itself():
    # bound by ``import wptrx``, not by ``__getattr__`` on a first read, so
    # code that rebinds the package's functions and later restores them
    # (perfbench's tracer) finds and restores them all
    for module in ("analytic", "config", "params"):
        for name in EXPORTS[module]:
            assert name in vars(wptrx), name
            with pytest.raises(AttributeError, match=name):
                wptrx.__getattr__(name)


def test_unknown_package_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_layer_function"):
        wptrx.no_such_layer_function


# (statements run after ``import wptrx, wptrx.cli``, modules that must stay
# unloaded: layers of ``wptrx``, and numpy): set-up parses and validates a
# config and ``validate`` prints it, neither loading numpy or the table
# writer; fig7 designs from the small-signal layer alone; simulate runs the
# switched simulator alone
SETUP_UNLOADED = ("simulator", "control", "smallsignal", "averaged",
                  "scenarios", "rootfind", "table", "numpy")
LOAD_CASES = {
    "setup": ("wptrx.validate(wptrx.parse_config({table2!r}).params)",
              SETUP_UNLOADED),
    "validate": ("wptrx.cli.main(['validate', '--config', {table2!r}])",
                 SETUP_UNLOADED),
    "fig7": ("wptrx.cli.main(['reproduce', 'fig7', '--out', {out!r}])",
             ("simulator", "control", "averaged", "scenarios")),
    "simulate": ("wptrx.cli.main(['simulate', '--config', {table2!r}, "
                 "'--cycles', '2', '--out', {out!r}])",
                 ("control", "scenarios", "smallsignal", "averaged")),
}


def test_each_command_loads_only_the_layers_it_runs(tmp_path):
    # fresh interpreters, started together: the test process itself has
    # imported every layer
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    procs = {}
    for case, (statement, _) in LOAD_CASES.items():
        statement = statement.format(table2=str(TABLE2),
                                     out=str(tmp_path / case))
        code = ("import contextlib, io, sys\n"
                "import wptrx, wptrx.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    {statement}\n"
                "print(' '.join(m for m in sys.modules "
                "if m.startswith('wptrx.') or m == 'numpy'))\n")
        procs[case] = subprocess.Popen([sys.executable, "-c", code], env=env,
                                       stdout=subprocess.PIPE,
                                       stderr=subprocess.PIPE, text=True)
    for case, proc in procs.items():
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        loaded = set(out.split())
        unloaded = {m if m == "numpy" else f"wptrx.{m}"
                    for m in LOAD_CASES[case][1]}
        assert "wptrx.cli" in loaded
        assert not loaded & unloaded, (case, sorted(loaded & unloaded))

"""Single-switch resonant wireless-power receiver: design and simulation.

``import wptrx`` imports the steady-state layers (``analytic``, ``config``,
``params``), which every command uses to read and validate a config.  The
names of the other layers resolve on first use (PEP 562): reading
``wptrx.run`` imports ``wptrx.simulator``.  So a program that uses only the
steady-state and small-signal layers never loads the switched simulator,
and the reverse.
"""

import importlib

from .analytic import (OperatingPoint, duty_bounds, duty_for_target_vo,
                       fall_time_approx, fall_time_exact, input_current,
                       optimal_duty, phase_angle, resonant_cap_voltage_drop,
                       rise_time, solve_operating_point, steady_state_vo)
from .config import RunConfig, parse_config, parse_config_text
from .params import (ReceiverParams, ValidatedParams, min_output_cap,
                     ripple_estimate, size_inductor, size_series_cap,
                     validate)

# lazily loaded layer -> the names the package exports from it
_LAZY = {
    "averaged": ("AveragedState", "AveragedTrajectory", "DutySchedule",
                 "TfMode", "averaged_rhs", "integrate_averaged",
                 "vo_vs_duty_curve"),
    "control": ("ClosedLoopOrbit", "Scenario", "TransientRecord",
                "closed_loop_orbit", "closed_loop_run", "feedforward_tf",
                "pi_step", "ramp_profile", "step_profile"),
    "simulator": ("CycleColumns", "CycleSummary", "DiagnosticColumns",
                  "ModulationCommand", "PeriodicOrbit", "RunResult",
                  "SegmentTable", "SpectrumResult", "SwitchCycleState",
                  "SwitchingState", "Waveform", "cycle_diagnostics",
                  "periodic_steady_state", "run", "sample_waveform",
                  "spectrum", "step_cycle"),
    "smallsignal": ("BodePoint", "PiGains", "TransferFunction1P", "bode",
                    "bode_points", "design_pi", "loop_margins",
                    "loop_response", "perturb_bode_oracle", "plant_tf"),
}
_MODULE_OF = {name: f"{__name__}.{module}"
              for module, names in _LAZY.items() for name in names}

__all__ = ["OperatingPoint", "duty_bounds", "duty_for_target_vo",
           "fall_time_approx", "fall_time_exact", "input_current",
           "optimal_duty", "phase_angle", "resonant_cap_voltage_drop",
           "rise_time", "solve_operating_point", "steady_state_vo",
           *_LAZY["averaged"],
           "RunConfig", "parse_config", "parse_config_text",
           *_LAZY["control"],
           "ReceiverParams", "ValidatedParams", "min_output_cap",
           "ripple_estimate", "size_inductor", "size_series_cap", "validate",
           *_LAZY["simulator"], *_LAZY["smallsignal"]]
__version__ = "0.1.0"


def __getattr__(name: str):
    """The exported ``name`` of a lazily loaded layer, read from its module
    (imported if it is not yet) and kept in the package, so later reads are
    plain attribute lookups."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})

"""Single-switch resonant wireless-power receiver: design and simulation."""

from .analytic import (OperatingPoint, duty_bounds, duty_for_target_vo,
                       fall_time_approx, fall_time_exact, input_current,
                       optimal_duty, phase_angle, resonant_cap_voltage_drop,
                       rise_time, solve_operating_point, steady_state_vo)
from .averaged import (AveragedState, AveragedTrajectory, DutySchedule,
                       TfMode, averaged_rhs, integrate_averaged,
                       vo_vs_duty_curve)
from .config import RunConfig, parse_config, parse_config_text
from .control import (ClosedLoopOrbit, Scenario, TransientRecord,
                      closed_loop_orbit, closed_loop_run, feedforward_tf,
                      pi_step, ramp_profile, step_profile)
from .params import (ReceiverParams, ValidatedParams, min_output_cap,
                     ripple_estimate, size_inductor, size_series_cap,
                     validate)
from .simulator import (CycleColumns, CycleSummary, DiagnosticColumns,
                        ModulationCommand, PeriodicOrbit, RunResult,
                        SegmentTable, SpectrumResult, SwitchCycleState,
                        SwitchingState, Waveform, cycle_diagnostics,
                        periodic_steady_state, run, sample_waveform,
                        spectrum, step_cycle)
from .smallsignal import (BodePoint, PiGains, TransferFunction1P, bode,
                          bode_points, design_pi, loop_margins,
                          loop_response, perturb_bode_oracle, plant_tf)

__version__ = "0.1.0"

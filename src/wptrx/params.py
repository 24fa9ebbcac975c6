"""Receiver parameter records, validation, and passive-component sizing.

The receiver is the series-compensated secondary coil (L_s, C_s) feeding a
semi-active class-D rectifier: one controlled switch and one diode, each
shunted by its parasitic capacitance (C_S1, C_D1), an output capacitor C_o
and a resistive load R.  The coil current is modelled as an ideal sinusoidal
source of amplitude ``i_ls_amp`` at the carrier frequency ``f_s``.

Sizing rules implemented here:

* coil inductance from a quality-factor target,
* series capacitor from the resonance condition,
* output capacitor from a peak-to-peak ripple budget (the half-cycle charge
  estimate, which is a conservative upper bound on the true ripple).

All quantities are SI base units throughout; unit prefixes are folded by the
configuration layer, never here.
"""

from dataclasses import asdict, dataclass, replace
import math

from .errors import NonPositiveParameter

# Relative mismatch between 1/(2*pi*sqrt(L_s*C_s)) and f_s that triggers a
# validation warning.  Off-the-shelf capacitor values never land exactly on
# the resonance, so a small mismatch is normal and must not be an error.
RESONANCE_WARN_FRAC = 0.02


@dataclass(frozen=True)
class ReceiverParams:
    """Raw receiver component values, as a designer would enter them.

    l_s       coil inductance (H)
    c_s       series compensation capacitor (F)
    c_s1      switch parallel capacitance (F)
    c_d1      diode parallel capacitance (F)
    c_o       output capacitor (F)
    r_load    load resistance (ohm)
    f_s       carrier / switching frequency (Hz)
    i_ls_amp  peak of the sinusoidal coil current (A)
    r_ls_esr  coil ESR (ohm); informational, used only by the sizing rules
    """

    l_s: float
    c_s: float
    c_s1: float
    c_d1: float
    c_o: float
    r_load: float
    f_s: float
    i_ls_amp: float
    r_ls_esr: float = 0.0


@dataclass(frozen=True, kw_only=True)
class ValidatedParams(ReceiverParams):
    """Receiver parameters plus derived fields, produced by :func:`validate`.

    Derived fields: ``omega`` = 2*pi*f_s (rad/s), ``c_sum`` = c_s1 + c_d1 (F),
    ``t_period`` = 1/f_s (s).  ``warnings`` carries non-fatal validation
    findings (currently only the resonance mismatch).
    """

    omega: float
    c_sum: float
    t_period: float
    warnings: tuple

    def with_load(self, r_load: float) -> "ValidatedParams":
        """Copy with a different load; derived fields are unaffected."""
        require_positive(r_load=r_load)
        return replace(self, r_load=float(r_load))

    def with_amplitude(self, i_ls_amp: float) -> "ValidatedParams":
        """Copy with a different coil-current amplitude (coupling change)."""
        require_positive(allow_zero=True, i_ls_amp=i_ls_amp)
        # as float: the cycle arithmetic is 1.5x slower on numpy scalars
        return replace(self, i_ls_amp=float(i_ls_amp))


_POSITIVE_FIELDS = ("l_s", "c_s", "c_s1", "c_d1", "c_o", "r_load", "f_s",
                    "i_ls_amp")


def validate(raw: ReceiverParams) -> ValidatedParams:
    """Check positivity, compute derived fields, collect warnings.

    Raises NonPositiveParameter naming the offending field.  A resonance
    mismatch above RESONANCE_WARN_FRAC is reported as a warning string, not
    an error: the receiver still works slightly off-resonance, the current
    amplitude simply deviates from the design value.
    """
    require_positive(**{name: getattr(raw, name) for name in _POSITIVE_FIELDS})
    require_positive(allow_zero=True, r_ls_esr=raw.r_ls_esr)

    warnings = []
    f_res = 1.0 / (2.0 * math.pi * math.sqrt(raw.l_s * raw.c_s))
    mismatch = abs(f_res - raw.f_s) / raw.f_s
    if mismatch > RESONANCE_WARN_FRAC:
        warnings.append(
            f"resonance mismatch {mismatch:.2%}: 1/(2*pi*sqrt(L_s*C_s)) = "
            f"{f_res:.6g} Hz vs f_s = {raw.f_s:.6g} Hz")

    return ValidatedParams(
        **asdict(raw),
        omega=2.0 * math.pi * raw.f_s,
        c_sum=raw.c_s1 + raw.c_d1,
        t_period=1.0 / raw.f_s,
        warnings=tuple(warnings),
    )


def require_positive(allow_zero: bool = False, below: float = math.inf,
                     **values: float) -> None:
    """The one range check for values entering the toolkit: raise
    NonPositiveParameter naming the first value that is not finite and > 0
    (>= 0 with ``allow_zero``) and < ``below``.  NaN and +-inf are always
    rejected."""
    for name, value in values.items():
        if not (math.isfinite(value) and value < below and
                (value > 0.0 or allow_zero and value == 0.0)):
            lower = ">= 0" if allow_zero else "> 0"
            raise NonPositiveParameter(name, value, lower if below == math.inf
                                       else f"{lower} and < {below:g}")


def size_inductor(q_target: float, r_esr: float, f_s: float) -> float:
    """Minimum coil inductance giving quality factor >= q_target.

    Q = 2*pi*f_s*L_s / R_esr, solved at equality for L_s.

    Args:
        q_target: desired coil quality factor (dimensionless).
        r_esr: coil equivalent series resistance (ohm).
        f_s: operating frequency (Hz).

    Returns:
        Inductance (H).
    """
    require_positive(q_target=q_target, r_esr=r_esr, f_s=f_s)
    return q_target * r_esr / (2.0 * math.pi * f_s)


def size_series_cap(l_s: float, f_s: float) -> float:
    """Series capacitor that resonates l_s at f_s: C_s = 1/((2*pi*f_s)^2 L_s)."""
    require_positive(l_s=l_s, f_s=f_s)
    w = 2.0 * math.pi * f_s
    return 1.0 / (w * w * l_s)


def min_output_cap(i_ls_amp: float, ripple_frac: float, v_o: float,
                   f_s: float) -> float:
    """Minimum output capacitance keeping ripple below ripple_frac * v_o.

    Uses the half-cycle charge estimate: all positive coil-current charge is
    assumed to accumulate on C_o, so the result is conservative (the load
    drains part of that charge while it arrives).

    Args:
        i_ls_amp: coil current amplitude (A).
        ripple_frac: ripple budget as a fraction of v_o, in (0, 1).
        v_o: output voltage (V).
        f_s: carrier frequency (Hz).

    Returns:
        Capacitance (F).
    """
    require_positive(i_ls_amp=i_ls_amp, v_o=v_o, f_s=f_s)
    require_positive(below=1.0, ripple_frac=ripple_frac)
    return i_ls_amp / (ripple_frac * v_o * math.pi * f_s)


def ripple_estimate(i_ls_amp: float, f_s: float, c_o: float) -> float:
    """Peak-to-peak output ripple bound |I_Ls| / (pi * f_s * C_o) (V).

    Inverse of :func:`min_output_cap`: the half-cycle charge 2*|I_Ls|/omega
    dumped on C_o.
    """
    require_positive(i_ls_amp=i_ls_amp, f_s=f_s, c_o=c_o)
    return i_ls_amp / (math.pi * f_s * c_o)

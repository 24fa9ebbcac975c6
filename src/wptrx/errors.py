"""Exception types shared by the receiver toolkit."""


class WptrxError(Exception):
    """Base class for all toolkit errors."""


class NonPositiveParameter(WptrxError):
    """A physical quantity that must be finite and strictly positive (or,
    where zero is allowed, non-negative) is not."""

    def __init__(self, field: str, value: float, bound: str = "> 0"):
        self.field = field
        self.value = value
        super().__init__(f"{field} must be {bound}, got {value!r}")


class CommutationImpossible(WptrxError):
    """The coil current cannot swing the switch-node capacitance across the
    full output voltage, so zero-voltage turn-on cannot be reached."""


class ArccosDomain(WptrxError):
    """Diode commutation never completes: the arccos argument left [-1, 1]."""


class DutyOutOfBounds(WptrxError):
    """Duty ratio outside the regulable window at its phase delay.  A duty
    outside (0, 1) is a NonPositiveParameter naming ``duty``."""


class EmptyDutyRange(WptrxError):
    """Phase delay so large that no regulable duty window exists."""


class NoConvergence(WptrxError):
    """Fixed-point iteration failed to settle."""


class ZeroGainOperatingPoint(WptrxError):
    """Operating point sits at the output-voltage maximum; first-order
    control gain vanishes there."""


class NoCrossover(WptrxError):
    """Open-loop magnitude never reaches unity."""


class GateOverrun(WptrxError):
    """Gate-off edge would land beyond the end of the carrier period."""


class ConfigError(WptrxError):
    """Base class for configuration-file problems."""


class ConfigSyntax(ConfigError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class UnknownKey(ConfigError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(f"unknown configuration key {key!r}")


class MissingKey(ConfigError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(f"missing required configuration key {key!r}")


class UnknownFigure(WptrxError):
    """Requested figure id is not in the supported reproduction set."""

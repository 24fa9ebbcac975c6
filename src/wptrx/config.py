"""Line-oriented configuration files: ``key = value`` with SI prefixes.

Values are plain floats with an optional metric suffix (n, u, m, k, M)
folded to base units, e.g. ``c_o = 1000u`` is 1e-3 F.  ``#`` starts a
comment.  Unknown and duplicate keys are rejected so a typo cannot
silently fall back to a default.
"""

from dataclasses import dataclass
import re
from typing import Optional

from .errors import ConfigSyntax, MissingKey, UnknownKey
from .params import ReceiverParams

_PREFIX = {"n": 1e-9, "u": 1e-6, "m": 1e-3, "k": 1e3, "M": 1e6}

_VALUE_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)([numkM])?$")

_PARAM_KEYS = ("l_s", "c_s", "c_s1", "c_d1", "c_o", "r_load", "f_s",
               "i_ls_amp", "r_ls_esr")
_EXTRA_KEYS = ("v_ref", "f_c", "i_ls_ff", "duty", "phase_delay_norm")
_REQUIRED = ("l_s", "c_s", "c_s1", "c_d1", "c_o", "r_load", "f_s",
             "i_ls_amp")
KNOWN_KEYS = _PARAM_KEYS + _EXTRA_KEYS


@dataclass(frozen=True)
class RunConfig:
    """A named run setup: receiver values plus controller settings."""
    params: ReceiverParams
    v_ref: float = 24.0
    f_c: float = 1000.0
    i_ls_ff: Optional[float] = None   # defaults to i_ls_amp
    duty: Optional[float] = None
    phase_delay_norm: Optional[float] = None

    @property
    def feedforward_amp(self) -> float:
        return self.i_ls_ff if self.i_ls_ff is not None else \
            self.params.i_ls_amp


def parse_value(token: str, line_no: int) -> float:
    m = _VALUE_RE.match(token)
    if not m:
        raise ConfigSyntax(line_no, f"cannot parse value {token!r}")
    value = float(m.group(1))
    if m.group(2):
        value *= _PREFIX[m.group(2)]
    return value


def parse_config_text(text: str) -> RunConfig:
    seen: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigSyntax(line_no, f"expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if not key or not rhs:
            raise ConfigSyntax(line_no, f"expected 'key = value', got {raw!r}")
        if key not in KNOWN_KEYS:
            raise UnknownKey(key)
        if key in seen:
            raise ConfigSyntax(line_no, f"duplicate key {key!r}")
        seen[key] = parse_value(rhs, line_no)
    for key in _REQUIRED:
        if key not in seen:
            raise MissingKey(key)
    params = ReceiverParams(
        l_s=seen["l_s"], c_s=seen["c_s"], c_s1=seen["c_s1"],
        c_d1=seen["c_d1"], c_o=seen["c_o"], r_load=seen["r_load"],
        f_s=seen["f_s"], i_ls_amp=seen["i_ls_amp"],
        r_ls_esr=seen.get("r_ls_esr", 0.0))
    return RunConfig(
        params=params,
        v_ref=seen.get("v_ref", 24.0),
        f_c=seen.get("f_c", 1000.0),
        i_ls_ff=seen.get("i_ls_ff"),
        duty=seen.get("duty"),
        phase_delay_norm=seen.get("phase_delay_norm"))


def parse_config(path) -> RunConfig:
    with open(path, "r") as fh:
        return parse_config_text(fh.read())

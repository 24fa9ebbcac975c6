"""Line-oriented configuration files: ``key = value`` with SI prefixes.

Values are plain floats with an optional metric suffix (n, u, m, k, M)
folded to base units, e.g. ``c_o = 1000u`` is 1e-3 F.  ``#`` starts a
comment.  Unknown and duplicate keys are rejected so a typo cannot
silently fall back to a default.
"""

from dataclasses import MISSING, dataclass, fields
import math
import re
from typing import Optional

from .analytic import PHASE_DELAY_MAX
from .errors import ConfigSyntax, MissingKey, UnknownKey
from .params import ReceiverParams, require_positive

_PREFIX = {"n": 1e-9, "u": 1e-6, "m": 1e-3, "k": 1e3, "M": 1e6}

_VALUE_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)([numkM])?$")

_PARAM_KEYS = tuple(f.name for f in fields(ReceiverParams))
_REQUIRED = tuple(f.name for f in fields(ReceiverParams)
                  if f.default is MISSING)
# the controller and run keys: (zero allowed, exclusive upper bound)
_RUN_KEY_RANGES = {"v_ref": (False, math.inf), "f_c": (False, math.inf),
                   "i_ls_ff": (False, math.inf), "duty": (False, 1.0),
                   "phase_delay_norm": (True, PHASE_DELAY_MAX)}
KNOWN_KEYS = _PARAM_KEYS + tuple(_RUN_KEY_RANGES)


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
    for key, (allow_zero, below) in _RUN_KEY_RANGES.items():
        if key in seen:
            require_positive(allow_zero, below, **{key: seen[key]})
    # only the keys present: RunConfig holds the defaults of the others
    return RunConfig(
        params=ReceiverParams(**{k: seen[k] for k in _PARAM_KEYS
                                 if k in seen}),
        **{k: seen[k] for k in _RUN_KEY_RANGES if k in seen})


def parse_config(path) -> RunConfig:
    with open(path, "r") as fh:
        return parse_config_text(fh.read())

"""Seeded receiver inputs for the benchmark workloads.

Every receiver is drawn from a box around one of the two shipped
configurations (``table2.cfg``, the 24 V / 16 W prototype, and ``fig7.cfg``,
the small-signal study point) and written out as a config file.  The program
sees only those files and the command arguments; this module uses the
stdlib alone until :func:`prepare` parses and validates the files.

Draws are Latin-hypercube stratified per box, so the pool mean of every
parameter varies little from seed to seed and per-op cost stays steady.

Soft and hard switching.  At the shipped prototype point the gate fires
before the switch voltage has fallen (hard turn-on on every cycle), so a
change to State-I event location would have nothing to act on.  Receivers
therefore alternate between two sides of the exact fall time:

* ``soft`` (even index): the capture gate delay sits 4-9 % beyond the exact
  fall time, and the regulation feedforward amplitude 4-9 % below the live
  amplitude, so the switch voltage reaches zero before the gate edge;
* ``hard`` (odd index): the gate delay sits 4-9 % short of the fall time,
  and the feedforward amplitude at or up to 4 % above the live amplitude.

The measured branch mix is reported by the traced run
(``simulator.soft_frac``, ``simulator.hard_cycles``).
"""

import math
import os
import random

F_S = 200e3

# Fixed values of each anchor; everything else is drawn from its box.
TABLE2_FIXED = {"l_s": 172e-6, "c_s": 3.63e-9, "f_s": F_S, "r_ls_esr": 2.16,
                "v_ref": 24.0}
FIG7_FIXED = {"l_s": 172e-6, "c_s": 3.6817290568e-9, "f_s": F_S,
              "v_ref": 24.0}

# (low, high) of each drawn quantity.
TABLE2_BOX = {
    "c_s1": (3.8e-9, 5.2e-9),
    "c_d1": (3.8e-9, 5.2e-9),
    "c_o": (820e-6, 1200e-6),
    "r_load": (42.0, 50.0),
    "i_ls_amp": (2.35, 2.65),
    "f_c": (800.0, 1250.0),
    "v_target": (22.0, 25.0),      # averaged output the capture duty aims at
    "delay_margin": (0.04, 0.09),  # gate delay beyond/short of the fall time
    "soft_ff_margin": (0.04, 0.09),  # live amplitude over feedforward, soft
    "hard_ff_margin": (0.0, 0.04),   # feedforward over live amplitude, hard
    "sweep_up": (0.05, 0.12),      # sweep amplitude above feedforward (soft)
    "sweep_down": (0.0, 0.03),     # sweep amplitude below feedforward (hard)
}
FIG7_BOX = {
    "c_s1": (3.8e-9, 5.2e-9),
    "c_d1": (3.8e-9, 5.2e-9),
    "c_o": (80e-6, 120e-6),
    "r_load": (25.0, 35.0),
    "i_ls_amp": (0.85, 1.15),
    "f_c": (800.0, 1250.0),
    "phase_delay_norm": (0.08, 0.12),
    "duty_above_min": (0.05, 0.15),  # duty above the window floor 1/2 - f_s*t_f
}

# Duty step off an exact operating point that does not converge.
DUTY_NUDGE = 1e-4
MAX_DUTY_NUDGES = 100

# Receivers per pool; rounds cycle through the pool.
POOL = {"design": 16, "regulation": 8, "capture": 8}


def _latin_hypercube(rng: random.Random, box: dict, n: int) -> list:
    """``n`` points, each dimension split into ``n`` strata hit once."""
    cols = {}
    for key, (lo, hi) in box.items():
        strata = list(range(n))
        rng.shuffle(strata)
        cols[key] = [lo + (hi - lo) * (s + rng.random()) / n for s in strata]
    return [{key: cols[key][i] for key in box} for i in range(n)]


def _fall_delay_norm(c_sum: float, v_o: float, i_amp: float) -> float:
    """f_s * exact fall time: the root of 1 - cos(w t) = w C_sum v_o / |I|."""
    w = 2.0 * math.pi * F_S
    return math.acos(1.0 - w * c_sum * v_o / i_amp) / (2.0 * math.pi)


def _duty_for(i_amp: float, r_load: float, v_o: float, fst: float) -> float:
    """Duty on the regulable branch whose averaged output is ``v_o``."""
    phi = 2.0 * math.pi * fst
    c = math.cos(phi) - 2.0 * math.pi * v_o / (i_amp * r_load)
    return (2.0 * math.pi - math.acos(c) - phi) / (2.0 * math.pi)


def _table2_receiver(p: dict, soft: bool) -> dict:
    c_sum = p["c_s1"] + p["c_d1"]
    fst_fall = _fall_delay_norm(c_sum, p["v_target"], p["i_ls_amp"])
    fst = fst_fall * (1.0 + p["delay_margin"] if soft
                      else 1.0 - p["delay_margin"])
    i_ff = (p["i_ls_amp"] / (1.0 + p["soft_ff_margin"]) if soft
            else p["i_ls_amp"] * (1.0 + p["hard_ff_margin"]))
    cfg = dict(TABLE2_FIXED)
    cfg.update(c_s1=p["c_s1"], c_d1=p["c_d1"], c_o=p["c_o"],
               r_load=p["r_load"], i_ls_amp=p["i_ls_amp"], f_c=p["f_c"],
               i_ls_ff=i_ff, phase_delay_norm=fst,
               duty=_duty_for(p["i_ls_amp"], p["r_load"], p["v_target"], fst))
    sweep = (i_ff * (1.0 + p["sweep_up"]), i_ff * (1.0 - p["sweep_down"]))
    return {"anchor": "table2", "side": "soft" if soft else "hard",
            "config": cfg, "sweep_amps": sweep}


def _fig7_receiver(p: dict) -> dict:
    fst = p["phase_delay_norm"]
    cfg = dict(FIG7_FIXED)
    cfg.update(c_s1=p["c_s1"], c_d1=p["c_d1"], c_o=p["c_o"],
               r_load=p["r_load"], i_ls_amp=p["i_ls_amp"], f_c=p["f_c"],
               phase_delay_norm=fst, duty=0.5 - fst + p["duty_above_min"])
    return {"anchor": "fig7", "side": "pinned", "config": cfg,
            "sweep_amps": ()}


def generate(workload: str, seed: int) -> list:
    """The workload's receiver pool for ``seed`` (plain dicts, no I/O)."""
    rng = random.Random(f"{workload}:{seed}")
    n = POOL[workload]
    if workload == "design":
        # alternate the two anchors, half the pool each
        t2 = _latin_hypercube(rng, TABLE2_BOX, n // 2)
        f7 = _latin_hypercube(rng, FIG7_BOX, n // 2)
        out = []
        for i in range(n // 2):
            out.append(_table2_receiver(t2[i], soft=i % 2 == 0))
            out.append(_fig7_receiver(f7[i]))
        return out
    return [_table2_receiver(p, soft=i % 2 == 0)
            for i, p in enumerate(_latin_hypercube(rng, TABLE2_BOX, n))]


def config_text(cfg: dict) -> str:
    return "".join(f"{key} = {value!r}\n" for key, value in cfg.items())


def _exact_point_converges(rcv) -> bool:
    from wptrx import solve_operating_point
    from wptrx.errors import NoConvergence

    try:
        solve_operating_point(rcv["params"], rcv["config"]["duty"], exact=True)
    except NoConvergence:
        return False
    return True


def prepare(workload: str, seed: int, workdir: str) -> list:
    """Generate, write, parse and validate the pool: the benchmark set-up.

    Adds ``path``, ``run_config``, ``params`` and ``duty_nudges`` to each
    receiver dict.  ``wptrx simulate`` starts from the exact operating point
    at the config duty, which the seed's solver fails to find for about 2 %
    of duties (``NoConvergence``; the design workload counts those).  For
    ``capture`` such a duty is stepped up by ``DUTY_NUDGE`` until the point
    exists, and the steps are counted in ``duty_nudges``.
    """
    from wptrx import parse_config, validate

    receivers = generate(workload, seed)
    os.makedirs(workdir, exist_ok=True)
    for i, rcv in enumerate(receivers):
        rcv["path"] = os.path.join(workdir, f"receiver{i:02d}.cfg")
        rcv["duty_nudges"] = 0
        while True:
            with open(rcv["path"], "w") as fh:
                fh.write(config_text(rcv["config"]))
            rcv["run_config"] = parse_config(rcv["path"])
            rcv["params"] = validate(rcv["run_config"].params)
            if workload != "capture" or _exact_point_converges(rcv):
                break
            if rcv["duty_nudges"] == MAX_DUTY_NUDGES:
                raise RuntimeError(f"receiver {i}: no exact operating point "
                                   f"within {MAX_DUTY_NUDGES} duty steps")
            rcv["config"]["duty"] += DUTY_NUDGE
            rcv["duty_nudges"] += 1
    return receivers


def describe_box() -> dict:
    """The parameter box, for the run manifest."""
    return {"table2": {"fixed": TABLE2_FIXED, "drawn": TABLE2_BOX},
            "fig7": {"fixed": FIG7_FIXED, "drawn": FIG7_BOX},
            "pool": POOL}

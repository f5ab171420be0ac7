"""Named parameter presets for the benchmark operating points."""

from __future__ import annotations

from .circuits import InterferometerParams

#: benchmark operating points; values are decimal strings so they convert
#: exactly at any working precision
PRESETS: dict[str, dict] = {
    # 3 dB gain starting point: r = 0.88, 1 uW probe seed, 10 mW LOs,
    # lossless, 1 mrad rotation
    "paper-start": {
        "r": "0.88",
        "s": "0",
        "alpha": "2e6",
        "beta": "0",
        "gamma": "2e8",
        "kappa": "2e8",
        "eta_p1": "1",
        "eta_c1": "1",
        "eta_p2": "1",
        "eta_c2": "1",
        "eta_p3": "0.5",
        "eta_c3": "0.5",
        "theta_f": "0.001",
        "phi_p": "0",
        "phi_c": "0",
        "arms": "both",
        "precision": 60,
    },
    # 15 dB gain point: r = 2.413 with 8% internal loss
    "g15": {
        "r": "2.413",
        "s": "0",
        "alpha": "2e6",
        "beta": "0",
        "gamma": "2e8",
        "kappa": "2e8",
        "eta_p1": "0.92",
        "eta_c1": "0.92",
        "eta_p2": "1",
        "eta_c2": "1",
        "eta_p3": "0.5",
        "eta_c3": "0.5",
        "theta_f": "0.001",
        "phi_p": "0",
        "phi_c": "0",
        "arms": "both",
        "precision": 60,
    },
}

#: shorthand names, each setting several fields at once; "phi" is the
#: sample phase, equal to theta_f under the positive-slope transduction
PARAM_ALIASES = {
    "eta": ("eta_p1", "eta_c1"),
    "gamma_kappa": ("gamma", "kappa"),
    "phi": ("theta_f",),
}


def make_params(preset: str | None = None, **overrides) -> InterferometerParams:
    """Build params from an optional preset plus field overrides.

    Overrides may use the shorthand names of ``PARAM_ALIASES``.
    """
    values: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise KeyError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
        values.update(PRESETS[preset])
    for key, val in overrides.items():
        if val is None:
            continue
        for f in PARAM_ALIASES.get(key, (key,)):
            values[f] = val
    return InterferometerParams(**values)

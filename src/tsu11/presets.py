"""Named parameter presets for the benchmark operating points."""

from __future__ import annotations

from .circuits import InterferometerParams

#: benchmark operating points: the values that differ from the
#: ``InterferometerParams`` defaults, which fill in the rest; decimal
#: strings, so they convert exactly at any working precision
PRESETS: dict[str, dict] = {
    # 3 dB gain starting point: r = 0.88, 1 uW probe seed, 10 mW LOs,
    # lossless, 1 mrad rotation
    "paper-start": {
        "r": "0.88",
        "alpha": "2e6",
        "gamma": "2e8",
        "kappa": "2e8",
        "theta_f": "0.001",
    },
    # 15 dB gain point: r = 2.413 with 8% internal loss
    "g15": {
        "r": "2.413",
        "alpha": "2e6",
        "gamma": "2e8",
        "kappa": "2e8",
        "eta_p1": "0.92",
        "eta_c1": "0.92",
        "theta_f": "0.001",
    },
}

#: shorthand names, each setting several fields at once; "phi" is the
#: sample phase, equal to theta_f under the positive-slope transduction
PARAM_ALIASES = {
    "eta": ("eta_p1", "eta_c1"),
    "gamma_kappa": ("gamma", "kappa"),
    "phi": ("theta_f",),
}


def expand(items) -> dict:
    """Field values of (name, value) ``items``: a shorthand of
    ``PARAM_ALIASES`` sets each field it names.  Two items that set one
    field, directly or through a shorthand, are a ValueError, so no
    field's value depends on the order of the items."""
    values: dict = {}
    owner: dict = {}
    for key, val in items:
        for f in PARAM_ALIASES.get(key, (key,)):
            if f in owner:
                raise ValueError(f"{owner[f]!r} and {key!r} both set {f}")
            owner[f] = key
            values[f] = val
    return values


def make_params(preset: str | None = None, **overrides) -> InterferometerParams:
    """Build params from an optional preset plus field overrides.

    Overrides may use the shorthand names of ``PARAM_ALIASES``; a None
    override is skipped, and two that set one field (``eta`` and
    ``eta_p1``) are a ValueError (``expand``).
    """
    values: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise KeyError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
        values.update(PRESETS[preset])
    values.update(expand((k, v) for k, v in overrides.items() if v is not None))
    return InterferometerParams(**values)

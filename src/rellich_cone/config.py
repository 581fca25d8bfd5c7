"""Runtime configuration: defaults, key-value config file, precedence.

Configuration precedence is flags > config file > defaults.  The config
file is plain text, one ``key = value`` per line, ``#`` comments allowed::

    # resolution of the mode eigensolver
    mode_L = 100
    mode_N = 8000
    k_max = 6

The default file path comes from the ``RELLICH_CONE_CONFIG`` environment
variable when set.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace

__all__ = ["Config", "load_config", "resolve_config", "ENV_CONFIG", "VERIFY_SUITES"]

ENV_CONFIG = "RELLICH_CONE_CONFIG"

#: verification suites in run order; ``verify.SUITES`` maps each to its checks
VERIFY_SUITES = ("constants", "lemmas", "equivalence", "radial", "witnesses", "spectra")


@dataclass(frozen=True)
class Config:
    """Tunable resolutions and tolerances.

    mode_L / mode_N: truncation half-length and interior point count of the
    per-mode eigensolver at full resolution (verification suites).
    scan_L / scan_N: the same for the per-row sweeps of the scan command.
    k_max: highest spherical-harmonic degree probed by numeric sweeps.
    step: cylinder quadrature step (minimum cell count still applies).
    bound_tol: tolerance for comparisons against closed-form bounds.
    equivalence_tol: contract for the x-space / cylinder agreement.
    """

    mode_L: float = 100.0
    mode_N: int = 8000
    scan_L: float = 100.0
    scan_N: int = 4000
    k_max: int = 6
    step: float = 0.025
    bound_tol: float = 1e-3
    equivalence_tol: float = 1e-6

    def __post_init__(self):
        for name in ("mode_N", "scan_N"):
            if not getattr(self, name) >= 3:
                raise ValueError(f"config {name} must be >= 3, got {getattr(self, name)}")
        for name in ("mode_L", "scan_L", "step", "bound_tol", "equivalence_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"config {name} must be finite and > 0, got {value}")
        if not self.k_max >= 0:
            raise ValueError(f"config k_max must be >= 0, got {self.k_max}")


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


def _parse_value(name: str, text: str):
    kind = _FIELD_TYPES[name]
    if kind in ("int",):
        return int(text)
    return float(text)


def load_config(path) -> dict:
    """Read a key-value config file into a dict of known keys."""
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
            key, _, raw = text.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in _FIELD_TYPES:
                raise ValueError(
                    f"{path}:{lineno}: unknown config key {key!r} "
                    f"(known: {', '.join(sorted(_FIELD_TYPES))})"
                )
            values[key] = _parse_value(key, raw)
    return values


def resolve_config(path=None, overrides=None) -> Config:
    """Merge defaults, config file (explicit path or env var), and overrides."""
    cfg = Config()
    if path is None:
        path = os.environ.get(ENV_CONFIG) or None
    if path:
        cfg = replace(cfg, **load_config(path))
    if overrides:
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    return cfg

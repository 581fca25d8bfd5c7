"""Runtime configuration of the numeric scan: defaults, config file, precedence.

Configuration precedence is flags > config file > defaults.  The config
file is plain text, one ``key = value`` per line, ``#`` comments allowed::

    # resolution of scan --with-numeric
    scan_L = 100
    scan_N = 4000
    k_max = 6

The default file path comes from the ``RELLICH_CONE_CONFIG`` environment
variable when set.  Verification runs at fixed resolutions and tolerances
(see :mod:`rellich_cone.verify`), so no key here changes its outcome.
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
    """Resolution of the per-row numeric estimate of ``scan --with-numeric``.

    scan_L / scan_N: truncation half-length and interior point count of the
    per-mode eigensolver.
    k_max: highest spherical-harmonic degree probed.
    """

    scan_L: float = 100.0
    scan_N: int = 4000
    k_max: int = 6

    def __post_init__(self):
        if not self.scan_N >= 3:
            raise ValueError(f"config scan_N must be >= 3, got {self.scan_N}")
        if not (math.isfinite(self.scan_L) and self.scan_L > 0):
            raise ValueError(f"config scan_L must be finite and > 0, got {self.scan_L}")
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

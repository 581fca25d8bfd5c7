"""Best constants in second-order dilation invariant inequalities on cones.

The library computes, classifies, and independently verifies the best
constant c in

    integral |x|^alpha |Delta u|^2 dx  >=  c  integral |x|^(alpha-2) |grad u|^2 dx

over functions on the cone spanned by a spherical domain, vanishing near
the origin and infinity.  Closed forms and classification live in
:mod:`rellich_cone.params`; eigenvalue data in :mod:`rellich_cone.spectra`;
the change of variables to the cylinder in :mod:`rellich_cone.cylinder`;
discrete per-mode minimization in :mod:`rellich_cone.modes`; direct
x-space quadrature verification in :mod:`rellich_cone.xspace`; and the
command-line interface in :mod:`rellich_cone.cli`.

The public names below are imported from their modules on first access
(PEP 562), so importing the package loads neither numpy nor scipy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("Config", "load_config", "resolve_config"),
    "corpus": ("CorpusEntry", "load_corpus"),
    "cylinder": ("CylinderFunction", "QuotientResult", "cylinder_quotient", "from_cylinder",
                 "poincare_xi", "to_cylinder", "xspace_equivalence_check"),
    "errors": ("ConvergenceError", "DegenerateModeError", "NoWitnessError",
               "RellichConeError", "SolverError", "SpectrumError"),
    "modes": ("ModeMinimum", "ModeProblem", "decompose_and_bound", "drift_bound_check",
              "minimize_mode", "phi", "scaled_family_value", "window_bound_check"),
    "params": ("ConstantReport", "EqualityCertificate", "Params", "Regime",
               "best_mode_constant", "breaking_threshold_bound", "classify",
               "critical_constant", "derive", "mode_value", "radial_constant"),
    "profiles": ("LineBump", "RadialBump", "RadialLogBump", "SampledLineProfile",
                 "ScaledLineBump"),
    "spectra": ("DomainKind", "DomainSpec", "Spectrum", "arc_spectrum", "cap_spectrum",
                "explicit_spectrum", "full_sphere_spectrum", "lambda_min",
                "load_spectrum_file", "spectrum_for"),
    "xspace": ("NoWitnessCertificate", "RadialIdentityResult", "WitnessResult",
               "XTestFunction", "radial_identity_check", "symmetry_breaking_witness",
               "weighted_integrals", "weighted_quotient"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

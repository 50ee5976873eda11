"""Links in 2n-plat position: diagrams, allowable paths, essential
surfaces, and certificates.

The package models plat projections whose twist regions satisfy a small
set of combinatorial hypotheses, enumerates the allowable paths that
carry separating spheres, computes the invariants of the planar and
tubed surfaces spanned along such a path, and emits certificates whose
conclusions are asserted by citation (see ``certificates``).  Braid
word and PD code export, Dehn surgery slope checks, and deterministic
rendering round out the toolkit; the ``platsurf`` command exposes all
of it.  Conventions for every format live in FORMATS.md.

Submodules load on first use: ``import platsurf`` runs only ``errors``
and ``render``, and a public name such as ``platsurf.certify`` imports
its submodule the first time it is looked up (PEP 562), so a command
pays only for the modules it runs.  The name → submodule table
``_LAZY`` is the one list of public names; ``__all__`` is computed
from it.
"""

# Bound here, not on first use: importing the submodule platsurf.render
# would otherwise leave the name bound to the module.
from .render import render

# Every public name but render, with the submodule that defines it;
# __all__ is computed from this table.  Each submodule's own name maps
# to itself, so ``platsurf.topology`` still reads as the module.
_LAZY = {
    name: module
    for module, names in (
        ("certificates", ("MODE_COMPOSITE", "MODE_RELAXED", "MODE_THEOREM1",
                          "Certificate", "Conclusion", "certificate_json", "certify",
                          "diagram_digest")),
        ("diagram", ("HypothesisReport", "PlatDiagram", "Rational", "Twist",
                     "box_denominator", "box_fraction", "check_hypotheses",
                     "diagram_from_json", "diagram_to_json", "make_diagram",
                     "random_diagram")),
        ("export", ("BraidWord", "PDCode", "pd_trace_components", "to_braid_word",
                    "to_pd_code")),
        ("paths", ("AllowablePath", "check_allowable", "count_allowable",
                   "crossing_count", "enumerate_allowable", "extremal_paths",
                   "iter_allowable")),
        ("surfaces", ("PLANAR", "TUBED_LEFT", "TUBED_RIGHT", "SideSummary",
                      "SphereDecomposition", "SurfaceReport", "assembled_surface_cells",
                      "decompose", "surface_invariants")),
        ("surgery", ("MERIDIAN", "HakenCertificate", "Slope", "certify_haken",
                     "direct_coverage_check", "haken_certificate_json",
                     "is_totally_nontrivial", "parity_criterion", "parse_slopes")),
        ("tangles", ("Pairing", "TangleFraction", "incompressibility_level", "pairing",
                     "pairing_by_tracing")),
        ("topology", ("LinkTopology", "braid_permutation", "build_topology",
                      "component_cycles", "components_meeting_sphere",
                      "components_strictly_beside", "crossing_components",
                      "crossing_pieces")),
        ("errors", ("MalformedDiagramError", "MalformedPDCodeError", "ParameterError",
                    "PathError", "PlatError", "TwoBridgeError", "UnsupportedBoxError")),
    )
    for name in (module, *names)
}


def __getattr__(name: str):
    """Import the submodule behind ``name`` on first access and keep the value."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = ["render", *(name for name, module in _LAZY.items() if name != module)]

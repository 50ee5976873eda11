"""The public platsurf calls the benchmark makes, named by layer.

Each workload calls the program only through a ``Layers`` object.  An
untraced one holds the plain functions, so end-to-end runs pay nothing
for tracing; a traced one wraps each call in a span named after the
module it belongs to.
"""

from __future__ import annotations

import platsurf
from platsurf import cli

from spans import Tracer


def _braid_word(d):
    word = platsurf.to_braid_word(d)
    return word, word.text()


def _pd_code(d):
    return platsurf.to_pd_code(d).text()


def _box_slopes(d):
    """Canonical slope and pairing of every box; returns the box count."""
    count = 0
    for _, _, box in d.boxes():
        platsurf.pairing(platsurf.box_fraction(box))
        count += 1
    return count


def _calls() -> dict:
    return {
        "diagram.parse": platsurf.diagram_from_json,
        "diagram.hypotheses": platsurf.check_hypotheses,
        "tangles.box_slopes": _box_slopes,
        "topology.build": platsurf.build_topology,
        "topology.lookup": platsurf.build_topology,
        "topology.braid_permutation": platsurf.braid_permutation,
        "paths.enumerate": platsurf.enumerate_allowable,
        "paths.count": platsurf.count_allowable,
        "paths.check_allowable": platsurf.check_allowable,
        "surfaces.decompose": platsurf.decompose,
        "surfaces.invariants": platsurf.surface_invariants,
        "certificates.certify": platsurf.certify,
        "certificates.json": platsurf.certificate_json,
        "surgery.parse_slopes": platsurf.parse_slopes,
        "surgery.haken": platsurf.certify_haken,
        "surgery.haken_json": platsurf.haken_certificate_json,
        "surgery.coverage": platsurf.direct_coverage_check,
        "export.braid_word": _braid_word,
        "export.word_permutation": lambda word: word.permutation(),
        "export.pd_code": _pd_code,
        "render.svg": lambda d, path: platsurf.render(d, path, "svg"),
        "render.ascii": lambda d, path: platsurf.render(d, path, "ascii"),
        "cli.main": cli.main,
    }


class Layers:
    """Attribute ``a_b`` is the call named ``a.b``, traced when a tracer is given."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        for name, fn in _calls().items():
            if tracer is not None:
                fn = tracer.wrap(name, fn)
            setattr(self, name.replace(".", "_"), fn)


def topology_cache():
    """The topology cache's ``cache_info``/``cache_clear`` holder, if exposed."""
    fn = platsurf.build_topology
    return fn if hasattr(fn, "cache_info") and hasattr(fn, "cache_clear") else None

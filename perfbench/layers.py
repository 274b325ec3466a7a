"""Which killform functions the traced run wraps, and the per-layer metrics.

The layers are the package modules.  `groups` also covers the `perms` and
`gf` code it calls, since those modules have no public entry point of their
own on the workloads.  Each span is named ``<module>.<function>``; a layer's
time metric is the summed self time of its spans in one pass.
"""
from __future__ import annotations

from spans import Span, Tracer, package_modules, root_coverage, self_times

# time metric -> the spans whose self time it sums
SELF_TIME = {
    "groups.build_s": ["groups.build_named_group"],
    "groups.classes_s": ["groups.conjugacy_classes"],
    "killing.form_s": ["killing.killing_matrix", "killing.universal_killing"],
    "killing.analyze_s": ["killing.analyze"],
    "exactlinalg.rank_s": ["exactlinalg.exact_rank"],
    "exactlinalg.rank_mod_p_s": ["exactlinalg.rank_mod_p"],
    "exactlinalg.signature_s": ["exactlinalg.signature"],
    "exactlinalg.components_s": ["exactlinalg.connected_components"],
    "exactlinalg.spectrum_s": ["exactlinalg.spectrum"],
    "characters.table_s": ["characters.character_table"],
    "characters.decompose_s": ["characters.eigenspace_decomposition"],
    "characters.roth_s": ["characters.roth_check"],
    "cli.self_s": ["cli.cmd_survey", "cli.cmd_decompose"],
    "cli.render_s": ["cli.Report.render"],
}

# every per-layer metric with its unit and the direction that is better
LAYER_METRICS = {name: ("s", "lower") for name in SELF_TIME}
LAYER_METRICS.update({
    "killing.form_entries": ("count", "lower"),
    "exactlinalg.rank_calls": ("count", "lower"),
    "exactlinalg.nullity_total": ("count", "lower"),
    "exactlinalg.elim_dim3": ("dim3_computed", "lower"),
    "exactlinalg.first_prime_ratio": ("ratio", "higher"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
})


def _matrix_call(args, kwargs, result):
    return {"dim": args[0].dim, "rank": result}


def _form_built(args, kwargs, result):
    return {"dim": result.matrix.dim}


FACTS = {
    "exactlinalg.exact_rank": _matrix_call,
    "exactlinalg.rank_mod_p": _matrix_call,
    "killing.killing_matrix": _form_built,
    "killing.universal_killing": _form_built,
}


def install(tracer: Tracer, killform) -> None:
    """Wrap every traced function of the loaded killform package."""
    modules = package_modules(killform.__name__)
    for names in SELF_TIME.values():
        for name in names:
            module, _, attr = name.partition(".")
            owner = getattr(killform, module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            tracer.wrap_function(name, owner, attr, modules, FACTS.get(name))


def layer_metrics(spans: list[Span], start: float, end: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that ran from start to end.

    trace.overhead_s needs an untraced pass to compare with; the caller
    fills it in.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {metric: sum(own[s.id] for n in names for s in by_name.get(n, ()))
           for metric, names in SELF_TIME.items()}

    forms = by_name.get("killing.killing_matrix", []) + by_name.get("killing.universal_killing", [])
    ranks = by_name.get("exactlinalg.exact_rank", [])
    first_rank_mod_p = {}
    for s in by_name.get("exactlinalg.rank_mod_p", ()):
        first_rank_mod_p.setdefault(s.parent, s)
    # exact_rank returns at once when its first rank_mod_p finds full rank
    first_prime = sum(1 for s in ranks
                      if s.id in first_rank_mod_p
                      and first_rank_mod_p[s.id].facts["rank"] == s.facts["dim"])
    out.update({
        "killing.form_entries": sum(s.facts["dim"] ** 2 for s in forms),
        "exactlinalg.rank_calls": len(ranks),
        "exactlinalg.nullity_total": sum(s.facts["dim"] - s.facts["rank"] for s in ranks),
        "exactlinalg.elim_dim3": sum(s.facts["dim"] ** 3
                                     for s in by_name.get("exactlinalg.rank_mod_p", ())),
        "exactlinalg.first_prime_ratio": first_prime / len(ranks) if ranks else 0.0,
        "trace.coverage": root_coverage(spans, start, end),
    })
    return out

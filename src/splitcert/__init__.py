"""splitcert: machine-checked certificates for collapsibility splittings.

The library certifies, end to end, the combinatorial data behind a family
of splitting results: simplicial complexes with replayable collapse
certificates, a spine-splitting verifier, Wirtinger presentations with
certified Tietze rewriting and abelianization, a numerically certified
hyperbolic triangle-group representation, and the factor-multiset invariant
that separates infinite connected sums. `splitcert verify-all` runs every
bundled check.

`import splitcert` imports none of its modules. Each public name below is
read from the module that defines it, imported on first use (PEP 562), so
`from splitcert import replay` loads `collapse` and `complexes` only, and
`import splitcert.cli` loads them all. The package keeps no copy of a name:
`splitcert.replay` is always `splitcert.collapse.replay`, also while a
tracer has replaced it there.
"""

__version__ = "0.1.0"

# the module that defines each public name
_EXPORTS = {
    "collapse": ("CollapseCertificate", "CollapseVerdict", "ReplayResult",
                 "SearchBudget", "elementary_collapse", "free_faces",
                 "greedy_collapse", "is_collapsible", "load_cert", "replay"),
    "complexes": ("SimplicialComplex", "build", "cone", "euler_characteristic",
                  "intersection", "load_scx", "union"),
    "groups": ("AbelianInvariants", "LinkDiagram", "Presentation",
               "TietzeError", "TietzeMove", "abelianization", "apply_tietze",
               "free_reduce", "impose_relator", "linking_number", "load_fp",
               "load_lnk", "parse_word", "smith_invariants", "substitute",
               "wirtinger", "word_str"),
    "hyperbolic": ("Isometry", "build_triangle", "certify_nontrivial",
                   "certify_relators", "evaluate", "hyp_distance",
                   "is_identity", "rotation", "same_isometry",
                   "triangle_defect"),
    "report": ("VerificationReport", "verify_all"),
    "splitting": ("OMEGA", "FactorMultiset", "SplitCertificate", "SplitError",
                  "distinguishable", "family_demo", "multiset_of",
                  "verify_spine_split"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__"] + sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))

import splitcert

# the package's public surface; adding or removing a name is a deliberate
# change to this tuple
PUBLIC = (
    "AbelianInvariants", "CollapseCertificate", "CollapseVerdict",
    "FactorMultiset", "Isometry", "LinkDiagram", "OMEGA", "Presentation",
    "ReplayResult", "SearchBudget", "SimplicialComplex", "SplitCertificate",
    "SplitError", "TietzeError", "TietzeMove",
    "VerificationReport", "__version__", "abelianization", "apply_tietze",
    "build", "build_triangle", "certify_nontrivial", "certify_relators",
    "cone", "distinguishable", "elementary_collapse", "euler_characteristic",
    "evaluate", "family_demo", "free_faces", "free_reduce", "greedy_collapse",
    "hyp_distance", "impose_relator", "intersection", "is_collapsible",
    "is_identity", "linking_number", "load_cert", "load_fp", "load_lnk",
    "load_scx", "multiset_of", "parse_word", "replay", "rotation",
    "same_isometry", "smith_invariants", "substitute", "triangle_defect",
    "union", "verify_all", "verify_spine_split", "wirtinger", "word_str",
)


def test_public_names_are_exactly_the_pinned_ones():
    assert PUBLIC == tuple(sorted(PUBLIC))
    assert tuple(sorted(splitcert.__all__)) == PUBLIC
    assert all(hasattr(splitcert, name) for name in PUBLIC)

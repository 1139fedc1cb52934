"""splitcert: machine-checked certificates for collapsibility splittings.

The library certifies, end to end, the combinatorial data behind a family
of splitting results: simplicial complexes with replayable collapse
certificates, a spine-splitting verifier, Wirtinger presentations with
certified Tietze rewriting and abelianization, a numerically certified
hyperbolic triangle-group representation, and the factor-multiset invariant
that separates infinite connected sums. `splitcert verify-all` runs every
bundled check.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .collapse import (CollapseCertificate, CollapseVerdict, ReplayResult,
                       SearchBudget, elementary_collapse, free_faces,
                       greedy_collapse, is_collapsible, load_cert, replay)
from .complexes import (SimplicialComplex, build, cone, euler_characteristic,
                        intersection, load_scx, union)
from .groups import (AbelianInvariants, LinkDiagram, Presentation, TietzeError,
                     TietzeMove, abelianization, apply_tietze, free_reduce,
                     impose_relator, linking_number, load_fp, load_lnk,
                     parse_word, smith_invariants, substitute, wirtinger,
                     word_str)
from .hyperbolic import (Isometry, build_triangle, certify_nontrivial,
                         certify_relators, evaluate, hyp_distance, is_identity,
                         rotation, same_isometry, triangle_defect)
from .report import VerificationReport, verify_all
from .splitting import (OMEGA, FactorMultiset, SplitCertificate, SplitError,
                        distinguishable, family_demo, multiset_of,
                        verify_spine_split)

# the public names are exactly the ones imported above
__all__ = ["__version__"] + sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType))

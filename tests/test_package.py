import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import splitcert

SRC = str(Path(__file__).resolve().parent.parent / "src")
MODULES = ("assets", "cli", "collapse", "complexes", "groups", "hyperbolic",
           "mazur", "report", "splitting")


def test_modules_names_every_submodule():
    files = Path(SRC, "splitcert").glob("*.py")
    assert MODULES == tuple(sorted(f.stem for f in files if f.stem != "__init__"))


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        splitcert.no_such_name
    assert not hasattr(splitcert, "no_such_name")


LOADED = ("print(*sorted(m for m in sys.modules "
          "if m.startswith('splitcert.')), sep=',')")


def _fresh(*statements: str) -> list[list[str]]:
    """Run the statements in a fresh interpreter (-S keeps site hooks out
    of sys.modules); one list per printed line, such as the loaded
    splitcert modules that LOADED prints."""
    code = "; ".join((f"import sys; sys.path.insert(0, {SRC!r})", *statements))
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return [[m.removeprefix("splitcert.") for m in line.split(",") if m]
            for line in out.stdout.splitlines()]


# what the import system sets in a package's namespace
IMPORT_SYSTEM = ("__builtins__", "__cached__", "__doc__", "__file__",
                 "__loader__", "__name__", "__package__", "__path__",
                 "__spec__")


def test_the_package_defines_no_name_but_its_version():
    # each name is imported from the module that defines it
    [names] = _fresh("import splitcert",
                     "print(*sorted(vars(splitcert)), sep=',')")
    assert set(names) - set(IMPORT_SYSTEM) == {"__version__"}


@pytest.mark.parametrize("statement, loaded", [
    # the package alone imports no module
    ("import splitcert", ()),
    # the collapse certificates need no group, hyperbolic or report code
    ("from splitcert import assets, collapse, complexes",
     ("assets", "collapse", "complexes")),
    # the benchmark's tracer relies on the CLI loading every module
    ("import splitcert.cli", MODULES),
    # the group side needs no asset, collapse, complex or report code
    ("from splitcert import groups, hyperbolic, mazur, splitting",
     ("groups", "hyperbolic", "mazur", "splitting")),
    ("import splitcert.hyperbolic", ("hyperbolic",)),
])
def test_import_loads_only_what_it_uses(statement, loaded):
    assert _fresh(statement, LOADED) == [list(loaded)]


@pytest.mark.parametrize("statement, call, loaded", [
    ("from splitcert.mazur import link_presentation",
     "assert len(link_presentation().generators) == 9",
     ("groups", "hyperbolic", "mazur")),
    ("from splitcert.splitting import verify_spine_split",
     "from splitcert.assets import load_certificate as c, load_complex as k; "
     "verify_spine_split(k('jester_hat'), k('jester_A'), k('jester_B'), "
     "(c('jester_A'), c('jester_B'), c('jester_C')))",
     ("splitting",)),
], ids=["link_presentation", "verify_spine_split"])
def test_a_function_imports_what_it_calls(statement, call, loaded):
    # the module alone loads; the call then finds the code it imports
    # itself, so a name left behind at module level fails here
    before, after = _fresh(statement, LOADED, call, LOADED)
    assert before == list(loaded)
    assert {"assets", "collapse", "complexes"} <= set(after)


# every record of the package: its fields, and what it holds when built
# from its required fields alone (the rest are defaults, or what its own
# __new__ makes of them)
RECORDS = [
    ("collapse", "SearchBudget", ("max_nodes",), (), (10 ** 6,)),
    ("collapse", "CollapseCertificate", ("steps",), ((),), ((),)),
    ("collapse", "ReplayResult",
     ("final", "trace", "collapsed_to_point", "failure"),
     (None, (), False), (None, (), False, None)),
    ("collapse", "CollapseVerdict", ("kind", "certificate", "nodes"),
     ("no",), ("no", None, 0)),
    ("groups", "Presentation", ("generators", "relators"),
     (("a",), ((("a", 1), ("a", 1), ("a", -1)),)), (("a",), ((("a", 1),),))),
    ("groups", "TietzeMove", ("kind", "word", "certificate", "gen", "index"),
     ("add-generator",), ("add-generator", (), (), "", -1)),
    ("groups", "Crossing", ("over", "under_in", "under_out", "sign"),
     ("a", "b", "c", -1), ("a", "b", "c", -1)),
    ("groups", "LinkDiagram", ("arcs", "crossings", "components"),
     ((), (), ()), ((), (), ())),
    ("groups", "AbelianInvariants", ("factors", "free_rank"),
     ((2,), 1), ((2,), 1)),
    ("hyperbolic", "RelatorReport", ("max_residual",), (0.5,), (0.5,)),
    ("hyperbolic", "NontrivialityReport", ("word_displacement",),
     (0.5,), (0.5,)),
    ("mazur", "DerivationChain", ("x1_word", "x5_word", "x5_gamma_word"),
     ((), (), ()), ((), (), ())),
    ("mazur", "TriangleCertificate",
     ("vertices", "assignment", "relator_report", "order_displacements",
      "rotation_b_matches", "meridian"),
     (1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6)),
    ("report", "CheckResult", ("check_id", "status", "detail"),
     ("X", "PASS", "d"), ("X", "PASS", "d")),
    ("report", "VerificationReport", ("checks",), ((),), ((),)),
    ("report", "Check", ("id", "group", "fn"), ("X", None, len),
     ("X", None, len)),
    ("splitting", "SplitCertificate",
     ("spine", "parts", "evidence", "conclusion"), ("K", ("A", "B"), ()),
     ("K", ("A", "B"), (), "splits-into-closed-balls")),
    ("splitting", "FactorMultiset", ("counts",), ((("b", 1), ("a", 2)),),
     ((("a", 2), ("b", 1)),)),
]


@pytest.mark.parametrize("module, name, fields, required, held", RECORDS,
                         ids=[r[1] for r in RECORDS])
def test_records_keep_their_fields_defaults_and_slots(module, name, fields,
                                                      required, held):
    record = getattr(importlib.import_module(f"splitcert.{module}"), name)
    assert record._fields == fields
    value = record(*required)
    assert type(value) is record
    assert value == held
    assert not hasattr(value, "__dict__")

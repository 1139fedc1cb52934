"""Access to the bundled asset files (.scx complexes, .cert certificates,
.lnk link diagram). All loaders accept an override directory so tests can
point at modified copies. Only `load_diagram` needs `groups`, and it
imports it when called."""
from __future__ import annotations

import os

from .collapse import CollapseCertificate, load_cert
from .complexes import SimplicialComplex, load_scx

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .groups import LinkDiagram

COMPLEXES = ("dunce_hat", "jester_hat", "jester_A", "jester_B", "jester_C")
CERTIFICATES = ("jester_C", "jester_A", "jester_B")
DIAGRAMS = ("mazur_link",)

BUNDLED = os.path.join(os.path.dirname(__file__), "assets")


def _path(name: str, assets_dir) -> str:
    # an empty assets_dir is the working directory, not the bundled one
    return os.path.join(BUNDLED if assets_dir is None else assets_dir, name)


def load_complex(name: str, assets_dir=None) -> SimplicialComplex:
    return load_scx(_path(f"{name}.scx", assets_dir))


def load_certificate(name: str, assets_dir=None) -> CollapseCertificate:
    return load_cert(_path(f"{name}.cert", assets_dir))


def load_diagram(name: str, assets_dir=None) -> LinkDiagram:
    from .groups import load_lnk
    return load_lnk(_path(f"{name}.lnk", assets_dir))

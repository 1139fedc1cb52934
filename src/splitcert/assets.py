"""Access to the bundled asset files (.scx complexes, .cert certificates,
.lnk link diagram). All loaders accept an override directory so tests can
point at modified copies."""
from __future__ import annotations

from importlib import resources
from pathlib import Path

from .collapse import CollapseCertificate, loads_cert
from .complexes import SimplicialComplex, loads_scx
from .groups import LinkDiagram, loads_lnk

COMPLEXES = ("dunce_hat", "jester_hat", "jester_A", "jester_B", "jester_C")
CERTIFICATES = ("jester_C", "jester_A", "jester_B")
DIAGRAMS = ("mazur_link",)


def _read(name: str, assets_dir=None) -> str:
    if assets_dir is not None:
        return (Path(assets_dir) / name).read_text()
    ref = resources.files(__package__) / "assets" / name
    return ref.read_text()


def load_complex(name: str, assets_dir=None) -> SimplicialComplex:
    return loads_scx(_read(f"{name}.scx", assets_dir), name=name)


def load_certificate(name: str, assets_dir=None) -> CollapseCertificate:
    return loads_cert(_read(f"{name}.cert", assets_dir))


def load_diagram(name: str, assets_dir=None) -> LinkDiagram:
    return loads_lnk(_read(f"{name}.lnk", assets_dir))

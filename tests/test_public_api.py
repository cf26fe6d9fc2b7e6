"""Pin the public API surface so accidental breakage fails CI readably.

The snapshot (``tests/api_snapshot.json``) records, for each public
module, its ``__all__`` and — for every callable export — the parameter
names, kinds, and whether each has a default.  Annotations and default
*values* are deliberately excluded so the snapshot is stable across
Python versions and cosmetic refactors; renaming or removing a parameter,
dropping an export, or changing positional/keyword-ness is exactly what
should fail.

To bless an intentional change::

    REPRO_UPDATE_API_SNAPSHOT=1 python -m pytest tests/test_public_api.py
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
from pathlib import Path

import pytest

MODULES = [
    "repro",
    "repro.exs",
    "repro.obs",
    "repro.check",
    "repro.fabric",
    "repro.simnet.fabric",
    "repro.apps",
    "repro.apps.incast",
]
SNAPSHOT = Path(__file__).parent / "api_snapshot.json"

_KINDS = {
    inspect.Parameter.POSITIONAL_ONLY: "pos",
    inspect.Parameter.POSITIONAL_OR_KEYWORD: "pos_or_kw",
    inspect.Parameter.VAR_POSITIONAL: "*args",
    inspect.Parameter.KEYWORD_ONLY: "kw",
    inspect.Parameter.VAR_KEYWORD: "**kwargs",
}


def _describe_callable(obj) -> list:
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):
        return []
    return [
        [name, _KINDS[p.kind], p.default is not inspect.Parameter.empty]
        for name, p in sig.parameters.items()
    ]


def _describe_module(name: str) -> dict:
    mod = importlib.import_module(name)
    exports = sorted(mod.__all__)
    surface = {"__all__": exports, "signatures": {}}
    for export in exports:
        obj = getattr(mod, export)
        if callable(obj):
            surface["signatures"][export] = _describe_callable(obj)
    return surface


def _current_surface() -> dict:
    return {name: _describe_module(name) for name in MODULES}


def test_public_api_matches_snapshot():
    current = _current_surface()
    if os.environ.get("REPRO_UPDATE_API_SNAPSHOT"):
        SNAPSHOT.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        pytest.skip("snapshot regenerated")
    assert SNAPSHOT.exists(), (
        "tests/api_snapshot.json missing; regenerate with "
        "REPRO_UPDATE_API_SNAPSHOT=1 python -m pytest tests/test_public_api.py"
    )
    recorded = json.loads(SNAPSHOT.read_text())

    for name in MODULES:
        want, got = recorded[name], current[name]
        missing = sorted(set(want["__all__"]) - set(got["__all__"]))
        added = sorted(set(got["__all__"]) - set(want["__all__"]))
        assert not missing, f"{name}: exports removed from __all__: {missing}"
        assert not added, (
            f"{name}: new exports {added} — bless with REPRO_UPDATE_API_SNAPSHOT=1"
        )
        for export, sig in want["signatures"].items():
            assert got["signatures"].get(export) == sig, (
                f"{name}.{export} signature changed:\n"
                f"  recorded: {sig}\n  current:  {got['signatures'].get(export)}"
            )


def test_every_export_exists():
    for name in MODULES:
        mod = importlib.import_module(name)
        for export in mod.__all__:
            assert hasattr(mod, export), f"{name}.__all__ lists missing {export!r}"

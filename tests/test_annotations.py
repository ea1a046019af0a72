"""Every annotation in catmigrate resolves: ``typing.get_type_hints`` reads
each module-level function and each method of each class, so a name used
only in an annotation and never defined fails here."""
from __future__ import annotations

import importlib
import pkgutil
import typing

import pytest

import catmigrate

MODULES = ["catmigrate"] + sorted(
    f"catmigrate.{info.name}" for info in pkgutil.iter_modules(catmigrate.__path__)
)


def _annotated(module):
    """Each function defined in ``module``, and each method, static or class
    method and property getter of each class defined there."""
    for name, value in sorted(vars(module).items()):
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, type):
            for attr, member in sorted(vars(value).items()):
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if callable(member) and hasattr(member, "__annotations__"):
                    yield f"{name}.{attr}", member
        elif callable(value) and hasattr(value, "__annotations__"):
            yield name, value


@pytest.mark.parametrize("module_name", MODULES)
def test_every_annotation_resolves(module_name):
    module = importlib.import_module(module_name)
    unresolved = []
    for name, function in _annotated(module):
        try:
            typing.get_type_hints(function)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert unresolved == []

from __future__ import annotations

from pathlib import Path

import pytest

from catmigrate import dsl

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

ALL_GOLDEN_FILES = [
    "two_facts.cat",
    "table_t.cat",
    "translation_f.cat",
    "pullback_expected.cat",
    "truncated.cat",
    "equivalence.cat",
    "employee.cat",
    "inferred_departments.cat",
    "self_email.cat",
    "times50.cat",
    "satisfaction.cat",
    "filtering.cat",
]


def load_documents(*names: str):
    """Parse golden files in order, each seeing the previous ones' names."""
    env: dict = {}
    docs: dict[str, dsl.Document] = {}
    for name in names:
        text = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        doc = dsl.parse_document(text, env)
        env.update(dsl.document_env(doc))
        docs[name] = doc
    return docs, env


@pytest.fixture(scope="session")
def paper_env():
    """Every golden declaration, keyed by (kind, name)."""
    _, env = load_documents(*ALL_GOLDEN_FILES)
    return env


@pytest.fixture(scope="session")
def golden_paths():
    return {name: str(GOLDEN_DIR / name) for name in ALL_GOLDEN_FILES}

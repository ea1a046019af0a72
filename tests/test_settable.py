"""The values a caller can set, pinned: every defaulted parameter of a
function or method of catmigrate whose name does not start with ``_``, and
every flag of each CLI verb, with its default.  Beside them, the module
constants that hold defaults and fixed caps, with their values, and the
absence of process-wide memo tables.

A bound that no caller sets is a module constant, read where it is checked,
not a parameter.  A knob or a cap added, removed or given a new value shows
up here as a diff to the lists below, to be accepted on purpose.
"""
from __future__ import annotations

import argparse
import ast
import importlib
from pathlib import Path

import catmigrate
from catmigrate.cli import _build_parser

DEFAULTED_PARAMETERS = [
    "cli.main(argv=None)",
    "dsl._Parser.fail(at=None)",
    "dsl._Parser.fail(expected=())",
    "dsl.parse_document(env=None)",
    "instances.assignments(injective=False)",
    "instances.assignments(work_cap=None)",
    "instances.count_morphisms(cap=5000000)",
    "migration.check_translation(budget=DEFAULT_REWRITE_BUDGET)",
    "migration.sigma_full(saturation_bound=DEFAULT_SATURATION_BOUND)",
    "migration.sigma_full(log=None)",
    "migration.sigma(saturation_bound=DEFAULT_SATURATION_BOUND)",
    "migration.sigma(log=None)",
    "migration.pi_full(path_bound=DEFAULT_PATH_BOUND)",
    "migration.pi_full(budget=DEFAULT_REWRITE_BUDGET)",
    "migration.pi_full(log=None)",
    "migration.pi(path_bound=DEFAULT_PATH_BOUND)",
    "migration.pi(budget=DEFAULT_REWRITE_BUDGET)",
    "migration.pi(log=None)",
    "schemas.paths_equivalent(budget=DEFAULT_REWRITE_BUDGET)",
]

FIXED_CAPS = [
    "instances.DEFAULT_ISOMORPHISM_WORK_CAP=2000000",
    "migration.DEFAULT_SATURATION_BOUND=1000",
    "migration.DEFAULT_PATH_BOUND=16",
    "migration.DEFAULT_SKOLEM_PATH_CAP=16",
    "migration.DEFAULT_ELEMENT_CAP=1000",
    "migration.DEFAULT_FAMILY_CAP=200000",
    "schemas.DEFAULT_REWRITE_BUDGET=64",
    "schemas.DEFAULT_PATH_LENGTH_CAP=32",
    "schemas._MAX_VISITED_STATES=60000",
]

CLI_FLAGS = [
    "validate --json=False",
    "validate --stable=False",
    "validate --rewrite-budget=64",
    "migrate --out=None",
    "migrate --name=None",
    "migrate --json=False",
    "migrate --stable=False",
    "migrate --rewrite-budget=64",
    "migrate --path-bound=16",
    "migrate --saturation-bound=1000",
    "check-adjunction --cap=2000000",
    "check-adjunction --json=False",
    "check-adjunction --stable=False",
    "check-adjunction --rewrite-budget=64",
    "check-adjunction --path-bound=16",
    "check-adjunction --saturation-bound=1000",
    "export-rdf --base=None",
    "export-rdf --out=None",
    "render --format='ascii-table'",
    "render --table=None",
    "render --out=None",
]


def _defaulted(node: ast.AST, prefix: str):
    """``prefix.name(parameter=default)`` for every defaulted parameter of a
    def under ``node`` whose name does not start with ``_``, in source order."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            if not child.name.startswith("_"):
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults) :]
                pairs = list(zip(defaulted, args.defaults))
                pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                for arg, default in pairs:
                    yield f"{name}({arg.arg}={ast.unparse(default)})"
            yield from _defaulted(child, name)
        elif isinstance(child, ast.ClassDef):
            yield from _defaulted(child, f"{prefix}.{child.name}")
        else:
            yield from _defaulted(child, prefix)


def _sources():
    return sorted(Path(catmigrate.__file__).parent.glob("*.py"))


def test_defaulted_parameters_are_pinned():
    found = []
    for path in _sources():
        found.extend(_defaulted(ast.parse(path.read_text(encoding="utf-8")), path.stem))
    assert found == DEFAULTED_PARAMETERS


def test_fixed_caps_are_pinned():
    found = []
    for path in _sources():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                if name.startswith(("DEFAULT_", "_MAX_")):
                    found.append(f"{path.stem}.{name}={ast.unparse(node.value)}")
    assert found == FIXED_CAPS


def test_no_module_keeps_a_memo_table():
    # A memo shared by the whole process outlives each call's inputs and
    # needs hashable, seed-proof keys; the engine keeps none.
    for path in _sources():
        name = "catmigrate" if path.stem == "__init__" else f"catmigrate.{path.stem}"
        module = importlib.import_module(name)
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else ()
            for item in (value, *members):
                assert not hasattr(item, "cache_clear"), (path.stem, item)


def test_cli_flags_are_pinned():
    parser = _build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = [
        f"{verb} {action.option_strings[-1]}={action.default!r}"
        for verb, sub in verbs.choices.items()
        for action in sub._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    ]
    assert found == CLI_FLAGS


CLI_SURFACE = [
    "catmigrate 'Categorical schemas, instances, and data migration.'",
    "catmigrate verb required=True",
    "validate 'validate every declaration in the given files'",
    "migrate 'run a migration functor on an instance'",
    "check-adjunction 'count hom-sets on both sides of the two adjunctions'",
    "export-rdf 'export an instance as sorted triples'",
    "render 'render instance tables'",
    "validate files nargs='+' choices=None",
    "migrate kind nargs=None choices=['delta', 'sigma', 'pi']",
    "migrate translation nargs=None choices=None",
    "migrate instance nargs=None choices=None",
    "migrate files nargs='+' choices=None",
    "migrate --name choices=None required=False"
    " help='name for the migrated instance declaration'",
    "check-adjunction translation nargs=None choices=None",
    "check-adjunction instance_on_source nargs=None choices=None",
    "check-adjunction instance_on_target nargs=None choices=None",
    "check-adjunction files nargs='+' choices=None",
    "check-adjunction --cap choices=None required=False"
    " help='bound on search work: the rows each component of a hom-set count may"
    " try (exit 3 past it); the counts themselves are exact, however large'",
    "export-rdf instance nargs=None choices=None",
    "export-rdf files nargs='+' choices=None",
    "export-rdf --base choices=None required=True help=None",
    "render instance nargs=None choices=None",
    "render files nargs='+' choices=None",
    "render --format choices=['ascii-table', 'csv'] required=False help=None",
]


def test_cli_surface_is_pinned():
    # The parts argparse renders into usage and --help, pinned one by one:
    # the rendered text itself differs between Python versions.
    parser = _build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = [
        f"{parser.prog} {parser.description!r}",
        f"{parser.prog} {verbs.dest} required={verbs.required}",
    ]
    found += [f"{choice.dest} {choice.help!r}" for choice in verbs._choices_actions]
    for verb, sub in verbs.choices.items():
        for action in sub._actions:
            if not action.option_strings:
                found.append(
                    f"{verb} {action.dest} nargs={action.nargs!r} choices={action.choices!r}"
                )
            elif action.help or action.choices or action.required:
                if not isinstance(action, argparse._HelpAction):
                    found.append(
                        f"{verb} {action.option_strings[-1]} choices={action.choices!r}"
                        f" required={action.required!r} help={action.help!r}"
                    )
    assert found == CLI_SURFACE

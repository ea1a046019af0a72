"""Command-line front end.

Verbs: ``validate``, ``migrate``, ``check-adjunction``, ``export-rdf``,
``render``.  Documents load left to right, earlier files serving as the
namespace for later ones.  Diagnostics go to standard error only; reports go
to standard output (JSON with ``--json``).  Exit codes: 0 ok, 1 validation
violation or failed check, 2 parse/usage errors, 3 bound errors.
"""
from __future__ import annotations

import argparse
import csv as csv_module
import io
import json
import sys
import time
from pathlib import Path as FilePath

from . import dsl
from .errors import BoundError, EngineError, ParseError
from .instances import (
    Instance,
    count_morphisms,
    validate_instance,
    validate_morphism,
)
from .migration import (
    DEFAULT_PATH_BOUND,
    DEFAULT_SATURATION_BOUND,
    MigrationLog,
    delta,
    pi,
    sigma,
    check_translation,
)
from .rdf import export_triples, grothendieck
from .schemas import DEFAULT_REWRITE_BUDGET
from .typed import validate_typed


class _InputError(Exception):
    """An input fault: a file that cannot be read or parsed, an unknown name or
    table, or an ``--out`` that cannot be written.  ``main`` exits 2 on it."""


def _load_documents(paths: list[str]) -> tuple[list[tuple[str, dsl.Document]], dict]:
    docs = []
    env: dict[tuple[str, str], object] = {}
    for path in paths:
        try:
            text = FilePath(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise _InputError(f"{path}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise _InputError(f"{path}: {exc}") from None
        try:
            doc = dsl.parse_document(text, env)
        except ParseError as exc:
            raise _InputError(f"{path}: {exc}") from None
        env.update(dsl.document_env(doc))
        docs.append((path, doc))
    return docs, env


def _lookup(env: dict, kind: str, name: str):
    value = env.get((kind, name))
    if value is None:
        raise _InputError(f"unknown {kind} {name!r}")
    return value


def _write_output(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            FilePath(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _InputError(f"{out}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _cmd_validate(args, docs, env) -> tuple[int, dict]:
    checks = {
        "instance": validate_instance,
        "translation": lambda t: check_translation(t, args.rewrite_budget),
        "morphism": validate_morphism,
        "typedinstance": validate_typed,
    }
    violations = []
    for path, doc in docs:
        for decl in doc.declarations:
            kind, value, *_ = dsl._DECLARATIONS[type(decl)]
            check = checks.get(kind)
            if check is None:
                continue
            for item in check(value(decl)):
                violations.append(
                    {"file": path, "kind": kind, "name": decl.name, "message": item.describe()}
                )
    for v in violations:
        print(f"{v['file']}: {v['kind']} {v['name']}: {v['message']}", file=sys.stderr)
    return 1 if violations else 0, {"command": "validate", "violations": violations}


# ---------------------------------------------------------------------------
# migrate
# ---------------------------------------------------------------------------


def _cmd_migrate(args, docs, env) -> tuple[int, dict]:
    translation = _lookup(env, "translation", args.translation)
    instance = _lookup(env, "instance", args.instance)
    log = MigrationLog()
    if args.kind == "delta":
        result = delta(translation, instance)
    elif args.kind == "sigma":
        result = sigma(translation, instance, saturation_bound=args.saturation_bound, log=log)
    else:
        result = pi(
            translation,
            instance,
            path_bound=args.path_bound,
            budget=args.rewrite_budget,
            log=log,
        )
    name = args.name or f"{args.instance}_{args.kind}"
    out_doc = dsl.Document([dsl.InstanceDecl(name, result.schema.name, result)])
    text = dsl.print_document(out_doc)
    counts = {v: len(result.row_set(v)) for v in result.schema.vertices}
    if args.out is None:
        sys.stdout.write(text)
        for v, n in counts.items():
            print(f"table {v}: {n} rows", file=sys.stderr)
    else:
        _write_output(args.out, text)
        if not args.json:
            for v, n in counts.items():
                print(f"table {v}: {n} rows")
    report = {
        "command": f"migrate {args.kind}",
        "translation": args.translation,
        "instance": args.instance,
        "tables": counts,
        "warnings": list(log.warnings),
        "saturation_rounds": [dict(r) for r in log.saturation_rounds],
    }
    return 0, report


# ---------------------------------------------------------------------------
# check-adjunction
# ---------------------------------------------------------------------------


def _cmd_check_adjunction(args, docs, env) -> tuple[int, dict]:
    translation = _lookup(env, "translation", args.translation)
    instance_c = _lookup(env, "instance", args.instance_on_source)
    instance_d = _lookup(env, "instance", args.instance_on_target)

    pushed = sigma(translation, instance_c, saturation_bound=args.saturation_bound)
    pulled = delta(translation, instance_d)
    limit = pi(translation, instance_c, path_bound=args.path_bound, budget=args.rewrite_budget)

    counts = {
        "hom_sigma_side": count_morphisms(pushed, instance_d, cap=args.cap),
        "hom_delta_side": count_morphisms(instance_c, pulled, cap=args.cap),
        "hom_delta_side_pi": count_morphisms(pulled, instance_c, cap=args.cap),
        "hom_pi_side": count_morphisms(instance_d, limit, cap=args.cap),
    }
    sigma_ok = counts["hom_sigma_side"] == counts["hom_delta_side"]
    pi_ok = counts["hom_delta_side_pi"] == counts["hom_pi_side"]
    lines = [
        f"|Hom(sigma I, J)| = {counts['hom_sigma_side']}",
        f"|Hom(I, delta J)| = {counts['hom_delta_side']}",
        f"sigma adjunction: {'equal' if sigma_ok else 'MISMATCH'}",
        f"|Hom(delta J, I)| = {counts['hom_delta_side_pi']}",
        f"|Hom(J, pi I)| = {counts['hom_pi_side']}",
        f"pi adjunction: {'equal' if pi_ok else 'MISMATCH'}",
    ]
    if not args.json:
        for line in lines:
            print(line)
    report = {
        "command": "check-adjunction",
        "counts": counts,
        "sigma_adjunction_equal": sigma_ok,
        "pi_adjunction_equal": pi_ok,
    }
    return 0 if sigma_ok and pi_ok else 1, report


# ---------------------------------------------------------------------------
# export-rdf / render
# ---------------------------------------------------------------------------


def _cmd_export_rdf(args, docs, env) -> tuple[int, None]:
    instance = _lookup(env, "instance", args.instance)
    store = grothendieck(instance)
    _write_output(args.out, export_triples(store, args.base))
    return 0, None


def _render_table(instance: Instance, vertex: str, fmt: str) -> str:
    arrows = instance.schema.graph.out_arrows(vertex)
    header = ["ID"] + [a.name for a in arrows]
    body = [
        [row] + [instance.column(a.name)[row] for a in arrows]
        for row in instance.row_set(vertex)
    ]
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv_module.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(body)
        return buffer.getvalue()
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    lines = [" | ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("-+-".join("-" * w for w in widths))
    for r in body:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _cmd_render(args, docs, env) -> tuple[int, None]:
    instance = _lookup(env, "instance", args.instance)
    if args.table is not None:
        if not instance.schema.graph.has_vertex(args.table):
            raise _InputError(f"no table {args.table!r}")
        text = _render_table(instance, args.table, args.format)
    else:
        blocks = []
        for v in instance.schema.vertices:
            blocks.append(f"table {v}\n" + _render_table(instance, v, args.format))
        text = "\n".join(blocks)
    _write_output(args.out, text)
    return 0, None


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_report_flags(parser: argparse.ArgumentParser, *bounds: str) -> None:
    """``--json``, ``--stable`` and a flag for each engine bound named; ``main``
    reports every bound named, ``cap`` too, which its verb adds itself."""
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--stable", action="store_true")
    defaults = {
        "rewrite_budget": DEFAULT_REWRITE_BUDGET,
        "path_bound": DEFAULT_PATH_BOUND,
        "saturation_bound": DEFAULT_SATURATION_BOUND,
    }
    for bound in bounds:
        if bound in defaults:
            parser.add_argument("--" + bound.replace("_", "-"), type=int, default=defaults[bound])
    parser.set_defaults(bounds=bounds)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catmigrate",
        description="Categorical schemas, instances, and data migration.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="validate every declaration in the given files")
    p.add_argument("files", nargs="+")
    _add_report_flags(p, "rewrite_budget")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("migrate", help="run a migration functor on an instance")
    p.add_argument("kind", choices=["delta", "sigma", "pi"])
    p.add_argument("translation")
    p.add_argument("instance")
    p.add_argument("files", nargs="+")
    p.add_argument("--out")
    p.add_argument("--name", help="name for the migrated instance declaration")
    _add_report_flags(p, "rewrite_budget", "path_bound", "saturation_bound")
    p.set_defaults(func=_cmd_migrate)

    p = sub.add_parser(
        "check-adjunction", help="count hom-sets on both sides of the two adjunctions"
    )
    p.add_argument("translation")
    p.add_argument("instance_on_source")
    p.add_argument("instance_on_target")
    p.add_argument("files", nargs="+")
    p.add_argument(
        "--cap",
        type=int,
        default=2_000_000,
        help="bound on search work: the rows each component of a hom-set count may "
        "try (exit 3 past it); the counts themselves are exact, however large",
    )
    _add_report_flags(p, "rewrite_budget", "path_bound", "saturation_bound", "cap")
    p.set_defaults(func=_cmd_check_adjunction)

    p = sub.add_parser("export-rdf", help="export an instance as sorted triples")
    p.add_argument("instance")
    p.add_argument("files", nargs="+")
    p.add_argument("--base", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export_rdf)

    p = sub.add_parser("render", help="render instance tables")
    p.add_argument("instance")
    p.add_argument("files", nargs="+")
    p.add_argument("--format", choices=["ascii-table", "csv"], default="ascii-table")
    p.add_argument("--table")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code, report = args.func(args, *_load_documents(args.files))
    except (_InputError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BoundError) else 2
    if report is not None:
        report["inputs"] = list(args.files)
        report["bounds"] = {bound: getattr(args, bound) for bound in args.bounds}
        report.setdefault("warnings", [])
        if not args.stable:
            report["wall_time_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
        if args.json:
            print(json.dumps(report, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())

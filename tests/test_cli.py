from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from catmigrate import cli, dsl
from catmigrate.cli import main
from catmigrate.errors import StructuralError
from catmigrate.instances import Instance

from .conftest import ALL_GOLDEN_FILES, GOLDEN_DIR, load_documents

EXPECTED_DIR = Path(__file__).resolve().parent / "expected" / "migrate"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def g(name: str) -> str:
    return str(GOLDEN_DIR / name)


def test_validate_employee_exits_zero(capsys):
    code, out, err = run(capsys, "validate", g("employee.cat"))
    assert code == 0
    assert err == ""


def test_validate_empty_file_exits_zero(tmp_path, capsys):
    empty = tmp_path / "empty.cat"
    empty.write_text("")
    code, _, _ = run(capsys, "validate", str(empty))
    assert code == 0


def test_validate_broken_equation_exits_one(tmp_path, capsys):
    text = (GOLDEN_DIR / "employee.cat").read_text(encoding="utf-8")
    broken = text.replace("Mgr = 103, isIn = q10)\n    102", "Mgr = 102, isIn = q10)\n    102")
    target = tmp_path / "broken.cat"
    target.write_text(broken)
    code, out, err = run(capsys, "validate", str(target), "--json")
    assert code == 1
    assert "101" in err
    report = json.loads(out)
    assert report["violations"]
    assert any("Mgr.isIn = isIn" in v["message"] for v in report["violations"])


def test_validate_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.cat"
    bad.write_text("schema { nope")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "line" in err
    assert out == ""


def test_a_parse_error_names_its_file_first(tmp_path, capsys):
    bad = tmp_path / "bad.cat"
    bad.write_text("schema { nope")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {bad}: line 1, column 8: expected a schema name (expected a schema name)\n"
    )


# An instance that breaks its equation, a translation whose image of it is
# unproved in a free schema, and a morphism and a typing that are not natural.
_FOUR_KINDS = """
schema S {
  nodes A, B;
  arrows f : A -> B; g : A -> B;
  equations A : f = g;
}
schema Free { nodes A, B; arrows f : A -> B; g : A -> B; }
instance Broken on S { table A { a -> (f = b1, g = b2) } table B { b1 b2 } }
instance Pair on S { table A { p -> (f = c, g = c) } table B { c d } }
translation Forget : S -> Free { nodes A -> A, B -> B; arrows f -> f; g -> g; }
morphism Twist : Broken -> Pair { A { a -> p } B { b1 -> d b2 -> c } }
typedinstance Bent {
  instance Broken;
  typing Pair;
  components { A { a -> p } B { b1 -> d b2 -> d } }
}
"""


def test_validate_reports_every_checkable_kind(tmp_path, capsys):
    path = tmp_path / "four.cat"
    path.write_text(_FOUR_KINDS)
    code, out, err = run(capsys, "validate", str(path), "--json", "--stable")
    assert code == 1
    found = [(v["kind"], v["name"]) for v in json.loads(out)["violations"]]
    assert found == [
        ("instance", "Broken"),
        ("translation", "Forget"),
        ("morphism", "Twist"),
        ("typedinstance", "Bent"),
        ("typedinstance", "Bent"),
    ]
    assert [line.split(":")[1] for line in err.splitlines()] == [
        f" {kind} {name}" for kind, name in found
    ]


def test_migrate_delta_row_counts(tmp_path, capsys):
    out_file = tmp_path / "out.cat"
    code, out, err = run(
        capsys,
        "migrate",
        "delta",
        "F",
        "J",
        g("two_facts.cat"),
        g("table_t.cat"),
        g("translation_f.cat"),
        "--out",
        str(out_file),
    )
    assert code == 0
    assert "table T1: 3 rows" in out
    assert "table T2: 3 rows" in out
    reloaded = dsl.parse_document(out_file.read_text(), _env())
    migrated = reloaded.instance("J_delta")
    assert migrated.row_set("T1") == ("XF667", "XF891", "XF221")


def _env():
    env: dict = {}
    for name in ("two_facts.cat", "table_t.cat", "translation_f.cat"):
        doc = dsl.parse_document((GOLDEN_DIR / name).read_text(), env)
        env.update(dsl.document_env(doc))
    return env


def test_migrate_pi_and_sigma_counts(tmp_path, capsys):
    files = [g("two_facts.cat"), g("table_t.cat"), g("translation_f.cat")]
    out_file = tmp_path / "pi.cat"
    code, out, _ = run(
        capsys, "migrate", "pi", "F", "I", *files, "--out", str(out_file)
    )
    assert code == 0
    assert "table T: 2 rows" in out
    code, out, _ = run(
        capsys, "migrate", "sigma", "F", "I", *files, "--out", str(tmp_path / "s.cat")
    )
    assert code == 0
    assert "table T: 7 rows" in out


def test_migrate_without_out_writes_document_to_stdout(capsys):
    files = [g("two_facts.cat"), g("table_t.cat"), g("translation_f.cat")]
    code, out, err = run(capsys, "migrate", "delta", "F", "J", *files)
    assert code == 0
    assert out.startswith("instance J_delta on C {")
    assert "rows" in err  # counts stay off the document stream


def test_migrate_bound_error_exits_three(tmp_path, capsys):
    doc = """
schema Loop { nodes W; arrows a : W -> W; }
schema Pt { nodes P; }
translation IntoLoop : Pt -> Loop { nodes P -> W; }
instance X on Pt { table P { x } }
"""
    path = tmp_path / "loop.cat"
    path.write_text(doc)
    code, out, err = run(
        capsys, "migrate", "sigma", "IntoLoop", "X", str(path), "--saturation-bound", "20"
    )
    assert code == 3
    assert "W" in err


def test_migrate_unknown_name_exits_two(capsys):
    code, _, err = run(capsys, "migrate", "delta", "Nope", "J", g("table_t.cat"))
    assert code == 2
    assert "Nope" in err


def test_check_adjunction_equal_counts(capsys):
    files = [g("two_facts.cat"), g("table_t.cat"), g("translation_f.cat"), g("truncated.cat")]
    code, out, _ = run(capsys, "check-adjunction", "F", "Ismall", "Jsmall", *files)
    assert code == 0
    assert "sigma adjunction: equal" in out
    assert "pi adjunction: equal" in out


def test_check_adjunction_on_the_full_instances(capsys):
    files = [g("two_facts.cat"), g("table_t.cat"), g("translation_f.cat")]
    code, out, _ = run(capsys, "check-adjunction", "F", "I", "J", *files)
    assert code == 0
    assert out.splitlines() == [
        "|Hom(sigma I, J)| = 506250",
        "|Hom(I, delta J)| = 506250",
        "sigma adjunction: equal",
        "|Hom(delta J, I)| = 67500000",
        "|Hom(J, pi I)| = 67500000",
        "pi adjunction: equal",
    ]


def test_check_adjunction_identity_translation(tmp_path, capsys):
    doc = """
schema S { nodes A, B; arrows f : A -> B; }
translation IdS : S -> S { nodes A -> A, B -> B; arrows f -> f; }
instance U on S { table A { a1 -> (f = b1) } table B { b1 b2 } }
instance W on S { table A { a1 -> (f = b1) a2 -> (f = b1) } table B { b1 } }
"""
    path = tmp_path / "ident.cat"
    path.write_text(doc)
    code, out, _ = run(capsys, "check-adjunction", "IdS", "U", "W", str(path))
    assert code == 0


def test_check_adjunction_corrupted_sigma_exits_one(capsys, monkeypatch):
    # sigma replaced by one that forgets every row: the hom-set counts differ
    monkeypatch.setattr(cli, "sigma", lambda translation, instance, **_: Instance(translation.target))
    files = [g("two_facts.cat"), g("table_t.cat"), g("translation_f.cat"), g("truncated.cat")]
    code, out, _ = run(capsys, "check-adjunction", "F", "Ismall", "Jsmall", *files)
    assert code == 1
    assert "sigma adjunction: MISMATCH" in out
    assert "pi adjunction: equal" in out


def _unreadable_input(tmp_path, case: str) -> str:
    path = tmp_path / "input.cat"
    if case == "directory":
        path.mkdir()
    elif case == "not UTF-8":
        path.write_bytes(b"schema S { nodes A\xff; }\n")
    return str(path)


@pytest.mark.parametrize("case", ["missing", "directory", "not UTF-8"])
def test_an_input_that_cannot_be_read_exits_two_naming_it(tmp_path, capsys, case):
    path = _unreadable_input(tmp_path, case)
    code, out, err = run(capsys, "validate", g("employee.cat"), path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_an_out_that_cannot_be_written_exits_two_naming_it(tmp_path, capsys):
    out_file = str(tmp_path / "missing" / "out.nt")
    code, out, err = run(
        capsys, "export-rdf", "Staff", g("employee.cat"), "--base", "http://x.org", "--out", out_file
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {out_file}: No such file or directory\n"


def test_an_out_that_is_a_directory_exits_two_naming_it(tmp_path, capsys):
    out_dir = str(tmp_path)
    code, out, err = run(
        capsys, "export-rdf", "Staff", g("employee.cat"), "--base", "http://x.org", "--out", out_dir
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {out_dir}: Is a directory\n"

def test_export_rdf_sixteen_sorted_lines(tmp_path, capsys):
    out_file = tmp_path / "triples.nt"
    code, _, _ = run(
        capsys,
        "export-rdf",
        "Staff",
        g("employee.cat"),
        "--base",
        "http://example.org/company",
        "--out",
        str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 16
    assert lines == sorted(lines)


def test_render_csv_header_order(capsys):
    code, out, _ = run(
        capsys,
        "render",
        "J",
        g("table_t.cat"),
        "--format",
        "csv",
        "--table",
        "T",
    )
    assert code == 0
    assert out.splitlines()[0] == "ID,SSN,First,Last,Salary"
    assert out.splitlines()[1] == "XF667,115-234,Bob,Smith,$250"


def test_render_empty_table_headers_only(tmp_path, capsys):
    doc = "schema S { nodes A, B; arrows f : A -> B; }\ninstance E on S { }\n"
    path = tmp_path / "e.cat"
    path.write_text(doc)
    code, out, _ = run(capsys, "render", "E", str(path), "--format", "csv", "--table", "A")
    assert code == 0
    assert out == "ID,f\n"


def test_render_ascii_table(capsys):
    code, out, _ = run(capsys, "render", "Staff", g("employee.cat"), "--table", "Employee")
    assert code == 0
    assert out.splitlines()[0].startswith("ID")
    assert "101" in out


def test_render_unknown_name_exits_two(capsys):
    code, _, err = run(capsys, "render", "Ghost", g("employee.cat"))
    assert code == 2


def test_render_unknown_table_exits_two(capsys):
    code, out, err = run(capsys, "render", "J", g("table_t.cat"), "--table", "Nope")
    assert (code, out, err) == (2, "", "error: no table 'Nope'\n")


def test_migrate_an_instance_off_the_source_exits_two(capsys):
    # J lives on F's target: the engine refuses it, and main reports the refusal
    files = [g("two_facts.cat"), g("table_t.cat"), g("translation_f.cat")]
    code, out, err = run(capsys, "migrate", "sigma", "F", "J", *files)
    assert (code, out) == (2, "")
    assert err == "error: sigma: instance is not on the translation's source\n"


def test_byte_determinism_of_reports(capsys):
    files = [g("two_facts.cat"), g("table_t.cat"), g("translation_f.cat")]
    runs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "validate", *files, "--json", "--stable"
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    report = json.loads(runs[0])
    assert "wall_time_ms" not in report


_SMALL = [g("two_facts.cat"), g("table_t.cat"), g("translation_f.cat"), g("truncated.cat")]
_REPORT_VERBS = {
    "validate": ["validate", g("employee.cat")],
    "migrate": ["migrate", "sigma", "F", "Ismall", *_SMALL, "--out", "<out>"],
    "check-adjunction": ["check-adjunction", "F", "Ismall", "Jsmall", *_SMALL],
}


@pytest.mark.parametrize("verb", list(_REPORT_VERBS))
def test_stable_strips_wall_time_but_default_keeps_it(tmp_path, capsys, verb):
    argv = [str(tmp_path / "out.cat") if a == "<out>" else a for a in _REPORT_VERBS[verb]]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert "wall_time_ms" in json.loads(out)
    code, out, _ = run(capsys, *argv, "--json", "--stable")
    assert code == 0
    assert "wall_time_ms" not in json.loads(out)


@pytest.mark.parametrize("verb", ["export-rdf", "render"])
def test_export_rdf_and_render_print_no_report(tmp_path, capsys, verb):
    base = ["--base", "http://example.org/company"] if verb == "export-rdf" else []
    out_file = tmp_path / "out.txt"
    code, out, err = run(capsys, verb, "Staff", g("employee.cat"), *base, "--out", str(out_file))
    assert (code, out, err) == (0, "", "")
    assert out_file.read_text()


def test_migrate_json_report_includes_chase_rounds(tmp_path, capsys):
    files = [g("two_facts.cat"), g("table_t.cat"), g("translation_f.cat")]
    code, out, _ = run(
        capsys,
        "migrate",
        "sigma",
        "F",
        "I",
        *files,
        "--out",
        str(tmp_path / "u.cat"),
        "--json",
        "--stable",
    )
    assert code == 0
    report = json.loads(out)
    assert report["tables"]["T"] == 7
    assert report["saturation_rounds"]
    assert report["saturation_rounds"][-1]["T"] == 7
    assert report["bounds"]["saturation_bound"] == 1000


_TWO_FACTS = [g("two_facts.cat"), g("table_t.cat"), g("translation_f.cat")]
_SHARED_KEYS = {
    "validate": (
        ["validate", g("employee.cat")],
        {"rewrite_budget": 32},
    ),
    "migrate": (
        ["migrate", "sigma", "F", "I", *_TWO_FACTS, "--out", "<out>"],
        {"rewrite_budget": 32, "path_bound": 12, "saturation_bound": 500},
    ),
    "check-adjunction": (
        ["check-adjunction", "F", "Ismall", "Jsmall", *_TWO_FACTS, g("truncated.cat")],
        {"rewrite_budget": 32, "path_bound": 12, "saturation_bound": 500, "cap": 100000},
    ),
}


@pytest.mark.parametrize("verb", list(_SHARED_KEYS))
def test_every_report_has_inputs_bounds_and_warnings(tmp_path, capsys, verb):
    argv, bounds = _SHARED_KEYS[verb]
    argv = [str(tmp_path / "out.cat") if a == "<out>" else a for a in argv]
    files = [a for a in argv if a.startswith(str(GOLDEN_DIR))]
    flags = [x for name, value in bounds.items() for x in (f"--{name.replace('_', '-')}", str(value))]
    for given, expected in (([], None), (flags, bounds)):
        code, out, _ = run(capsys, *argv, *given, "--json", "--stable")
        assert code == 0
        report = json.loads(out)
        assert report["inputs"] == files
        if expected is None:
            assert sorted(report["bounds"]) == sorted(bounds)
        else:
            assert report["bounds"] == expected
        assert isinstance(report["warnings"], list)


def test_an_engine_key_error_is_not_a_usage_error(monkeypatch):
    # Only an input fault exits 2; a KeyError out of the engine is a bug.
    def broken_sigma(translation, instance, **_):
        raise KeyError("T")

    monkeypatch.setattr(cli, "sigma", broken_sigma)
    with pytest.raises(KeyError):
        main(["migrate", "sigma", "F", "I", *_TWO_FACTS])


def test_an_engine_invariant_error_is_not_a_usage_error(monkeypatch):
    # A StructuralError out of a migration is an engine bug, not an input
    # fault: it propagates rather than exit 2.
    def broken_sigma(translation, instance, **_):
        raise StructuralError("column f of table T misses row r1")

    monkeypatch.setattr(cli, "sigma", broken_sigma)
    with pytest.raises(StructuralError, match="misses row r1"):
        main(["migrate", "sigma", "F", "I", *_TWO_FACTS])


def test_a_name_that_cannot_be_printed_exits_two(tmp_path, capsys):
    out_file = tmp_path / "out.cat"
    code, out, err = run(
        capsys, "migrate", "sigma", "F", "I", *_TWO_FACTS, "--name", "a\nb", "--out", str(out_file)
    )
    assert (code, out) == (2, "")
    assert err == "error: name 'a\\nb' holds a newline and cannot be printed\n"
    assert not out_file.exists()


# ---------------------------------------------------------------------------
# byte lock: the printed output of every golden migration
# ---------------------------------------------------------------------------


# pi into Company runs for minutes (it had not finished after 5 minutes on a
# one-employee instance), so these translations are not run through pi here.
_NO_PI = {"Infer"}


def _golden_migrations() -> list[tuple[str, str, str]]:
    """Every (kind, translation, instance) the goldens admit: delta on each
    instance over a translation's target, sigma and pi on each instance over
    its source, except pi along ``_NO_PI``."""
    _, env = load_documents(*ALL_GOLDEN_FILES)
    instances = sorted(
        (name, value.schema) for (kind, name), value in env.items() if kind == "instance"
    )
    runs = []
    for (kind, name), translation in sorted(env.items()):
        if kind != "translation":
            continue
        for instance, schema in instances:
            if schema == translation.target:
                runs.append(("delta", name, instance))
            if schema == translation.source:
                runs.append(("sigma", name, instance))
                if name not in _NO_PI:
                    runs.append(("pi", name, instance))
    return runs


def _migrate_transcript(kind: str, translation: str, instance: str, *flags: str):
    """Exit code and transcript (exit code, standard output, standard error)
    of one ``migrate`` run over every golden file, named relative to the
    repository root."""
    files = [f"golden/{name}" for name in ALL_GOLDEN_FILES]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN_DIR.parent)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["migrate", kind, translation, instance, *files, *flags])
    finally:
        os.chdir(cwd)
    return code, f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


_MODES = {"": (), "-json": ("--json", "--stable")}


def test_golden_migrations_print_byte_identical():
    """Each golden migration that exits 0 prints exactly its checked-in
    transcript under ``tests/expected/migrate``; every other one still fails.
    Regenerate the transcripts with ``python -m tests.test_cli``."""
    seen = set()
    for kind, translation, instance in _golden_migrations():
        for suffix, flags in _MODES.items():
            name = f"{kind}-{translation}-{instance}{suffix}.txt"
            code, transcript = _migrate_transcript(kind, translation, instance, *flags)
            expected = EXPECTED_DIR / name
            if expected.exists():
                seen.add(name)
                assert transcript == expected.read_text(encoding="utf-8"), name
            else:
                assert code != 0, f"{name}: exits 0 but has no expected transcript"
    assert seen == {p.name for p in EXPECTED_DIR.iterdir()}


if __name__ == "__main__":
    EXPECTED_DIR.mkdir(parents=True, exist_ok=True)
    for kind, translation, instance in _golden_migrations():
        for suffix, flags in _MODES.items():
            code, transcript = _migrate_transcript(kind, translation, instance, *flags)
            if code == 0:
                path = EXPECTED_DIR / f"{kind}-{translation}-{instance}{suffix}.txt"
                path.write_text(transcript, encoding="utf-8")

"""Every output goes through ``errors.open_output``: UTF-8, and replaced
atomically, so a writer that fails leaves the previous file as it was.
Every CSV input goes through ``errors.read_csv``, and every CSV output
through ``errors.write_csv``."""

import ast
import json
from pathlib import Path

import pytest

import webcred
from webcred import cli
from webcred.credibility import score_from_labels, write_scores_csv
from webcred.errors import open_output, output_transaction, write_csv

PACKAGE = Path(webcred.__file__).resolve().parent


def write_old(path):
    path.write_bytes(b"old contents\n")
    return path.read_bytes()


class TestOpenOutput:
    def test_replaces_the_file_with_utf8_text(self, tmp_path):
        path = tmp_path / "out.txt"
        write_old(path)
        with open_output(path) as fh:
            fh.write("café\n")
        assert path.read_bytes() == "café\n".encode("utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_failed_block_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        old = write_old(path)
        with pytest.raises(RuntimeError):
            with open_output(path) as fh:
                fh.write("half a file")
                raise RuntimeError("writer failed")
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_unwritable_output_is_reported_by_its_own_name(self, tmp_path):
        path = str(tmp_path / "absent" / "out.txt")
        with pytest.raises(FileNotFoundError) as excinfo:
            with open_output(path):
                pass
        assert excinfo.value.filename == path

    def test_write_scores_csv_failing_partway_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "scores.csv"
        old = write_old(path)

        def results():
            yield "http://a.example.org/", score_from_labels([1] * 7)
            raise RuntimeError("scoring failed")

        with pytest.raises(RuntimeError):
            write_scores_csv(results(), path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scores.csv"]

    def test_write_json_failing_partway_keeps_the_old_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "report.json"
        old = write_old(path)

        def partial_dump(obj, fh, **kwargs):
            fh.write('{"partial": ')
            raise RuntimeError("serialisation failed")

        monkeypatch.setattr(json, "dump", partial_dump)
        with pytest.raises(RuntimeError):
            cli._write_json({"a": 1}, path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


class TestWriteCsv:
    def test_writes_the_preamble_then_csv_with_crlf_and_minimal_quoting(
        self, tmp_path
    ):
        path = tmp_path / "out.csv"
        rows = [("caf\u00e9", 0.1, 7), ('x,"y"', 1e-05, -1)]
        write_csv(path, ("a", "b", "c"), rows, preamble="# note\n")
        assert path.read_bytes() == (
            '# note\na,b,c\r\ncaf\u00e9,0.1,7\r\n"x,""y""",1e-05,-1\r\n'
        ).encode("utf-8")


class TestOutputTransaction:
    def test_outputs_replace_their_files_when_the_block_completes(self, tmp_path):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        old = write_old(first)
        with output_transaction():
            with open_output(first) as fh:
                fh.write("new a\n")
            assert first.read_bytes() == old
            with open_output(second) as fh:
                fh.write("new b\n")
            assert not second.exists()
        assert first.read_text() == "new a\n"
        assert second.read_text() == "new b\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]

    def test_a_failing_block_keeps_every_old_file(self, tmp_path):
        first = tmp_path / "a.txt"
        old = write_old(first)
        with pytest.raises(FileNotFoundError):
            with output_transaction():
                with open_output(first) as fh:
                    fh.write("new a\n")
                with open_output(tmp_path / "absent" / "b.txt"):
                    pass
        assert first.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]

    def test_open_output_replaces_at_once_after_the_block(self, tmp_path):
        with output_transaction():
            pass
        path = tmp_path / "out.txt"
        with open_output(path) as fh:
            fh.write("now\n")
        assert path.read_text() == "now\n"


def _is_write_mode(node):
    if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
        return False
    chars = set(node.value)
    return chars <= set("rwxabt+") and bool(chars & set("wax+"))


def _write_sites(source, filename):
    """Each call in ``source`` that opens a file for writing, or writes
    one through ``Path.write_text``/``write_bytes``."""
    sites = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
        if isinstance(func, ast.Name) and func.id == "open":
            # open(path, mode): a mode that is not a literal counts too.
            modes += node.args[1:2]
            if any(_is_write_mode(m) or not isinstance(m, ast.Constant) for m in modes):
                sites.append(f"{filename}:{node.lineno}: open()")
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            # Path.open(mode) or io.open(path, mode).
            if any(_is_write_mode(m) for m in modes + node.args[:2]):
                sites.append(f"{filename}:{node.lineno}: .open()")
        elif getattr(func, "attr", None) in ("write_text", "write_bytes"):
            sites.append(f"{filename}:{node.lineno}: .{func.attr}()")
    return sites


def test_no_writer_bypasses_open_output():
    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "errors.py":
            continue
        sites += _write_sites(path.read_text(encoding="utf-8"), path.name)
    assert sites == [], "write through errors.open_output instead:\n" + "\n".join(
        sites
    )


@pytest.mark.parametrize(
    "source, found",
    [
        ('open(p, "w")', True),
        ('open(p, mode="a", newline="")', True),
        ('open(p, "rb")', False),
        ("open(p)", False),
        ('Path(p).open("x")', True),
        ('io.open(p, "r+")', True),
        ("p.write_text(s)", True),
        ("p.write_bytes(b)", True),
        ("open(p, mode)", True),
        ('io.open("data.txt")', False),
        ("fh.write(s)", False),
    ],
)
def test_write_site_finder(source, found):
    assert bool(_write_sites(source, "x.py")) == found


CSV_READERS = ("reader", "DictReader")
CSV_WRITERS = ("writer", "DictWriter")


def _csv_sites(source, filename, names):
    """Each call of ``csv.<name>`` in ``source`` for a name in ``names``, and
    each import of one of them from ``csv``."""
    sites = []
    for node in ast.walk(ast.parse(source, filename)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "csv"
            and node.func.attr in names
        ):
            sites.append(f"{filename}:{node.lineno}: csv.{node.func.attr}()")
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            if {alias.name for alias in node.names} & {*names, "*"}:
                sites.append(f"{filename}:{node.lineno}: from csv import")
    return sites


def _package_csv_sites(names):
    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path != PACKAGE / "errors.py":
            sites += _csv_sites(path.read_text(encoding="utf-8"), path.name, names)
    return sites


def test_no_csv_input_bypasses_read_csv():
    sites = _package_csv_sites(CSV_READERS)
    assert sites == [], "read CSV through errors.read_csv instead:\n" + "\n".join(
        sites
    )


@pytest.mark.parametrize(
    "source, found",
    [
        ("csv.reader(fh)", True),
        ("csv.DictReader(fh)", True),
        ("from csv import reader", True),
        ("from csv import *", True),
        ("csv.writer(fh)", False),
        ("from csv import writer", False),
        ("read_csv(path, header, parse)", False),
    ],
)
def test_csv_reader_site_finder(source, found):
    assert bool(_csv_sites(source, "x.py", CSV_READERS)) == found


def test_no_csv_output_bypasses_write_csv():
    sites = _package_csv_sites(CSV_WRITERS)
    assert sites == [], "write CSV through errors.write_csv instead:\n" + "\n".join(
        sites
    )


@pytest.mark.parametrize(
    "source, found",
    [
        ("csv.writer(fh)", True),
        ("csv.DictWriter(fh, fields)", True),
        ("from csv import writer", True),
        ("from csv import DictWriter as W", True),
        ("from csv import *", True),
        ("csv.reader(fh)", False),
        ("from csv import reader", False),
        ("write_csv(path, header, rows)", False),
    ],
)
def test_csv_writer_site_finder(source, found):
    assert bool(_csv_sites(source, "x.py", CSV_WRITERS)) == found

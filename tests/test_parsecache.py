"""The load-set snapshot: a load from files gives what a load from their texts
gives, on every table, whether the set's entry is written (cold) or read
(warm), and an entry that is stale, corrupt or foreign never answers."""

import os
import re
import shutil
import sys
import threading
from importlib.util import source_hash
from pathlib import Path

import pytest

from property_checks import _mutations, as_two_files
from scriptkb import kb as kbmodule
from scriptkb import cli, parsecache, parser
from scriptkb.diagnostics import ERROR
from scriptkb.errors import CycleDetected, KbError
from scriptkb.kb import KnowledgeBase, read_text
from scriptkb.ontology import Language
from test_cli import invoke


@pytest.fixture()
def parses(monkeypatch):
    """The file names that loads parse from text while the test runs."""
    original, names = kbmodule._parse_database, []

    def counted(text, filename, *tables):
        names.append(filename)
        return original(text, filename, *tables)

    monkeypatch.setattr(kbmodule, "_parse_database", counted)
    return names


def write_base(root: Path, named_texts) -> list[str]:
    """Write (name, text) pairs under ``root`` as UTF-8, line ends as they are
    in the text; returns their paths."""
    paths = []
    for name, text in named_texts:
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode("utf-8"))
        paths.append(str(path))
    return paths


def other_line_ends(named_texts):
    """The texts with CRLF line ends, with lone-CR line ends, and led by a
    byte-order mark, each set as its own base."""
    for change in (lambda t: t.replace("\n", "\r\n"), lambda t: t.replace("\n", "\r"),
                   lambda t: "\ufeff" + t):
        yield [(name, change(text)) for name, text in named_texts]


def entries(paths) -> list[Path]:
    return sorted({e for p in paths
                   for e in (Path(p).parent / "__pycache__").glob("*.kbs")})


def clear_entries(paths) -> None:
    for p in paths:
        shutil.rmtree(Path(p).parent / "__pycache__", ignore_errors=True)


def assert_same_base(kb, want):
    """Every table of the two bases is equal, in order: blocks, positions,
    diagnostics and errors, field assertions, census, hierarchy, lexicon,
    grids and the index."""
    assert [(b, b.file, b.line, b.assertion_lines) for b in kb.blocks] \
        == [(b, b.file, b.line, b.assertion_lines) for b in want.blocks]
    assert [(s, sites) for s, sites in kb._sites.items()] \
        == [(s, sites) for s, sites in want._sites.items()]
    assert kb.diagnostics == want.diagnostics
    assert kb.errors == want.errors
    subjects = list(want.ontology.concepts())
    assert [list(kb._field_assertions[s]) for s in subjects] \
        == [list(want._field_assertions[s]) for s in subjects]
    assert list(kb._scripts) == list(want._scripts)
    assert list(kb._census) == list(want._census)  # rows by value, names included
    assert kb._census_totals == want._census_totals
    onto, other = kb.ontology, want.ontology
    assert list(onto._parents.items()) == list(other._parents.items())
    for table in ("_by_phrase", "_lexicon", "_reach"):
        assert [list(getattr(onto, table)[lang].items()) for lang in Language] \
            == [list(getattr(other, table)[lang].items()) for lang in Language]
    assert [(name, g, g.line, g.file) for name, g in kb.grids.items()] \
        == [(name, g, g.line, g.file) for name, g in want.grids.items()]
    assert kb.index == want.index


def error_diagnostics_of_cold_warm_and_text_bases(paths):
    """The ``errors`` of the ``from_texts``, cold and warm bases of the files,
    each checked against the base's own error diagnostics; None for a
    hierarchy cycle."""
    texts = [(p, Path(p).read_bytes().decode("utf-8")) for p in paths]
    clear_entries(paths)
    got = []
    try:
        for kb in (KnowledgeBase.from_texts(texts), KnowledgeBase.from_paths(paths),
                   KnowledgeBase.from_paths(paths)):
            errors = kb.errors  # a warm base reads them from their own section
            assert errors == [d for d in kb.diagnostics if d.severity == ERROR]
            got.append(errors)
    except CycleDetected:
        return None
    assert got[0] == got[1] == got[2]
    return got[0]


def check_cold_and_warm(paths, parses):
    """A cold load (the set's entry written) and a warm one (the entry read,
    nothing parsed) both give what ``from_texts`` gives for each file's text
    as decoded, line ends untranslated, or raise the same cycle and write no
    entry.  Returns the ``from_texts`` base, or None for a cycle."""
    texts = [(p, Path(p).read_bytes().decode("utf-8")) for p in paths]
    clear_entries(paths)
    try:
        want = KnowledgeBase.from_texts(texts)
    except CycleDetected as e:
        for _ in range(2):
            with pytest.raises(CycleDetected) as got:
                KnowledgeBase.from_paths(paths)
            assert str(got.value) == str(e)
        assert not entries(paths)
        return None
    del parses[:]
    assert_same_base(KnowledgeBase.from_paths(paths), want)
    assert parses == paths
    assert len(entries(paths)) == 1
    del parses[:]
    assert_same_base(KnowledgeBase.from_paths(paths), want)
    assert parses == []
    return want


def check_line_ends(root, named_texts, parses):
    """The base loads the same cold, warm and from its texts, and so does each
    copy with other line ends or a byte-order mark, written over it, which
    gives the base the LF files give."""
    want = check_cold_and_warm(write_base(root, named_texts), parses)
    for texts in other_line_ends(named_texts):
        assert_same_base(check_cold_and_warm(write_base(root, texts), parses), want)


def test_fixtures_load_the_same_cold_and_warm(tmp_path, parses, core_text, scripts_text,
                                              demo_text):
    check_line_ends(tmp_path, [
        ("core.kb", core_text), ("scripts.kb", scripts_text), ("demo.kb", demo_text)],
        parses)


def test_the_benchmark_base_loads_the_same_cold_and_warm(tmp_path, parses, bench_texts):
    check_line_ends(tmp_path, bench_texts, parses)


def test_mutated_bases_load_the_same_cold_and_warm(tmp_path, parses, core_text,
                                                   scripts_text, demo_text):
    # each mutated fixture is cut in two files that share its symbols
    for text in _mutations([core_text, scripts_text, demo_text], 1000, 20260808):
        check_cold_and_warm(write_base(tmp_path, as_two_files(text)), parses)


def test_errors_are_the_error_diagnostics_cold_warm_and_from_texts(
        tmp_path, core_text, scripts_text, demo_text, bench_texts):
    fixtures = [core_text, scripts_text, demo_text]
    assert error_diagnostics_of_cold_warm_and_text_bases(write_base(
        tmp_path / "fixtures", zip(("core.kb", "scripts.kb", "demo.kb"), fixtures))) == []
    assert error_diagnostics_of_cold_warm_and_text_bases(
        write_base(tmp_path / "bench", bench_texts)) == []
    found = 0
    for text in _mutations(fixtures, 1000, 20260808):
        errors = error_diagnostics_of_cold_warm_and_text_bases(
            write_base(tmp_path / "mutated", as_two_files(text)))
        found += bool(errors)
    assert found > 100  # the mutations reach the error paths


def test_every_command_prints_the_same_cold_and_warm(tmp_path, parses, core_text,
                                                     scripts_text, demo_text, bench_texts):
    fixtures = write_base(tmp_path / "fixtures", [
        ("core.kb", core_text), ("scripts.kb", scripts_text), ("demo.kb", demo_text)])
    bench = write_base(tmp_path / "bench", bench_texts)
    broken = write_base(tmp_path / "broken", [("bad.kb", "Object x\n[event01-of ^ Bad]\n")])
    rules = str(Path(parsecache.__file__).parent / "data" / "cyc-rules.txt")
    events = str(Path(parsecache.__file__).parent / "data" / "cyc-events.txt")
    flags = [f for p in fixtures for f in ("--kb", p)]
    commands = [
        ["validate", *fixtures], ["validate", *bench], ["validate", *broken],
        ["show", "blackout"], ["show", "green-pea"], ["show", "no-such-concept"],
        ["timeline", "eat-in-restaurant"], ["timeline", "sleep", "--unroll", "1"],
        ["recognize", "John poured shampoo on his hair."],
        ["recognize", "--language", "French", "panne de courant"],
        ["ask", "What does a waiter do?"],
        ["ask", "How much does eat in a fast food restaurant cost?"],
        ["stats"], ["stats", "--csv"], ["grid", "hotel-room1"],
        ["grid", "hotel-room1", "--at", "1,1"], ["cyc-extract", rules, "--events", events],
    ]
    runs = [[*flags, *c] for c in commands] + [[*flags, "--json", *c] for c in commands]
    script = KnowledgeBase.from_texts(bench_texts).script_concepts()[0]
    runs += [[f for p in bench for f in ("--kb", p)] + c
             for c in (["stats"], ["show", script], ["timeline", script])]
    runs += [[f for p in broken for f in ("--kb", p)] + ["stats"]]
    clear_entries(fixtures + bench + broken)
    cold = [invoke(*argv) for argv in runs]
    assert entries(fixtures + bench + broken)
    del parses[:]
    warm = [invoke(*argv) for argv in runs]
    assert parses == []
    assert warm == cold
    assert {code for code, _, _ in cold} >= {0, 2, 3}


# -- entries that must not answer ---------------------------------------------------


@pytest.fixture()
def one_file(tmp_path):
    path = tmp_path / "one.kb"
    path.write_text("Object hum\n[English] hum\n[event01-of ^ [buzz hum]]\n",
                    encoding="utf-8")
    KnowledgeBase.from_paths([path])
    (entry,) = entries([path])
    return path, entry


def loads_as_text(path, parses) -> None:
    """Loading the file parses its text and gives what ``from_texts`` gives."""
    del parses[:]
    kb = KnowledgeBase.from_paths([path])
    assert parses == [str(path)]
    assert_same_base(kb, KnowledgeBase.from_texts([(str(path), path.read_text("utf-8"))]))


def test_an_edit_keeping_size_and_mtime_is_parsed(one_file, parses, monkeypatch):
    path, entry = one_file
    # leave only the bytes to tell the two texts apart: an edit also gives the
    # file a new status-change time, which would retire the entry by itself
    monkeypatch.setattr(parsecache, "_file_id", lambda st: b"")
    KnowledgeBase.from_paths([path])
    stat = path.stat()
    path.write_text(path.read_text("utf-8").replace("buzz", "fizz"), encoding="utf-8")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    loads_as_text(path, parses)
    assert "fizz" in KnowledgeBase.from_paths([path]).ontology


@pytest.mark.parametrize("damage", [
    lambda data: data[:len(data) // 2],
    lambda data: data[:-1],
    lambda data: os.urandom(len(data)),
    lambda data: b"",
])
def test_a_damaged_entry_is_parsed_and_written_again(one_file, parses, damage):
    path, entry = one_file
    good = entry.read_bytes()
    entry.write_bytes(damage(good))
    loads_as_text(path, parses)
    assert entry.read_bytes() == good


def test_a_damaged_payload_behind_a_good_header_is_parsed(one_file, parses):
    path, entry = one_file
    data = bytearray(entry.read_bytes())
    data[-8:] = b"\xff" * 8
    entry.write_bytes(bytes(data))
    loads_as_text(path, parses)


def test_an_entry_of_other_code_is_parsed(one_file, parses, monkeypatch):
    path, entry = one_file
    with monkeypatch.context() as m:
        m.setattr(parsecache, "_code_key", lambda: b"another fingerprint")
        loads_as_text(path, parses)  # this key's entry was written by the real one
    loads_as_text(path, parses)


def test_an_entry_of_another_interpreter_is_parsed(one_file, parses, monkeypatch):
    path, entry = one_file
    parsecache._code_key.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(sys, "version", "0.0.0 (another build)")
            loads_as_text(path, parses)
        parsecache._code_key.cache_clear()
        loads_as_text(path, parses)
    finally:
        parsecache._code_key.cache_clear()


@pytest.fixture()
def package_dir(tmp_path, monkeypatch):
    """A package directory, not yet made, that the code key reads in place of
    the package's own."""
    root = tmp_path / "scriptkb"
    monkeypatch.setattr(parsecache, "__file__", str(root / "parsecache.pyc"))
    parsecache._code_key.cache_clear()
    yield root
    parsecache._code_key.cache_clear()


def test_a_sourceless_install_fingerprints_its_bytecode(package_dir):
    # as after `python -m compileall -b` and deleting the .py files
    package_dir.mkdir()
    for name in ("__init__.pyc", "parsecache.pyc", "parser.pyc"):
        (package_dir / name).write_bytes(f"bytecode of {name}".encode())
    keys = []
    for edit in (b"", b" edited"):
        with open(package_dir / "parser.pyc", "ab") as f:
            f.write(edit)
        parsecache._code_key.cache_clear()
        keys.append(parsecache._code_key())
    empty = parsecache._MAGIC + sys.version.encode() + b"\0" + source_hash(b"")
    assert empty not in keys
    assert keys[0] != keys[1]


def test_a_package_with_no_module_file_keeps_no_entry(tmp_path, package_dir, parses):
    # as from a zip import: the package directory is not one to list
    (path,) = write_base(tmp_path, [("one.kb", "Object x\n[event01-of ^ [hum x]]\n")])
    assert parsecache._code_key() == b""
    for _ in range(2):
        assert KnowledgeBase.from_paths([path]).script_concepts() == ["x"]
    assert parses == [path, path]
    assert entries([path]) == []


def test_symbols_and_numbers_outside_the_table_are_errors_cold_and_warm(tmp_path, parses):
    # a Kawi digit in a measure and a Glagolitic lowercase letter, which some
    # interpreters' Unicode tables count as a digit and a letter
    (path,) = write_base(tmp_path, [("m.kb", "Object x\n[event01-of ^ [hum x]]\n"
                                             "[duration-of ^ NUMBER:second:\U00011f55]\n\n"
                                             "Object y\n[event01-of ^ [hum \u2c5f]]\n")])
    for parsed in ([path], []):
        del parses[:]
        kb = KnowledgeBase.from_paths([path])
        assert parses == parsed
        assert [(d.file, d.line, d.col, d.code) for d in kb.errors] == [
            (path, 3, 16, "MalformedNumber"), (path, 6, 20, "KbSyntaxError")]
        assert kb.script_concepts() == []


def test_an_entry_that_came_with_its_source_is_parsed(tmp_path, one_file, parses):
    # as from an archive or a checkout: the same bytes, times and modes, but
    # a new file, so the entry was not written for it; the entry goes where
    # the copy's own set looks for it, so only its header can refuse it
    path, entry = one_file
    copy = tmp_path / "copy" / path.name
    copy.parent.mkdir()
    shutil.copy2(path, copy)
    moved = Path(parsecache._entry_path([str(copy)]))
    moved.parent.mkdir()
    shutil.copy2(entry, moved)
    assert copy.stat().st_mtime_ns == path.stat().st_mtime_ns
    loads_as_text(copy, parses)
    del parses[:]
    KnowledgeBase.from_paths([copy])
    assert parses == []


@pytest.mark.parametrize("mode", [0o664, 0o646, 0o666], ids=oct)
def test_an_entry_others_can_write_is_parsed(one_file, parses, mode):
    path, entry = one_file
    entry.chmod(mode)
    loads_as_text(path, parses)
    assert not entry.stat().st_mode & 0o022  # written again, for its owner alone
    del parses[:]
    KnowledgeBase.from_paths([path])
    assert parses == []


def test_an_entry_of_another_user_is_parsed(one_file, parses, monkeypatch):
    path, entry = one_file
    owner = entry.stat().st_uid
    monkeypatch.setattr(os, "geteuid", lambda: owner + 1)
    loads_as_text(path, parses)
    loads_as_text(path, parses)


@pytest.mark.parametrize("source_mode", [0o600, 0o640, 0o644, 0o666], ids=oct)
def test_an_entry_shows_no_one_a_text_they_cannot_read(tmp_path, source_mode):
    path = tmp_path / "one.kb"
    path.write_text("Object hum\n[event01-of ^ [buzz hum]]\n", encoding="utf-8")
    path.chmod(source_mode)
    KnowledgeBase.from_paths([path])
    (entry,) = entries([path])
    assert entry.stat().st_mode & 0o777 == 0o600


def test_an_entry_shows_no_one_a_file_in_a_directory_they_cannot_enter(tmp_path):
    # the entry sits beside the first file, in a directory others may enter,
    # and holds the text of the second, which they may not reach
    shared, home = tmp_path / "shared", tmp_path / "home"
    (a,) = write_base(shared, [("core.kb", "Object hum\n[event01-of ^ [buzz hum]]\n")])
    (b,) = write_base(home, [("notes.kb", "Object fizz\n[ako ^ hum]\n")])
    shared.chmod(0o755)
    home.chmod(0o700)
    Path(a).chmod(0o644)
    Path(b).chmod(0o644)
    try:
        KnowledgeBase.from_paths([a, b])
        (entry,) = entries([a, b])
        assert entry.parent.parent == shared
        assert entry.stat().st_mode & 0o777 == 0o600
    finally:
        home.chmod(0o755)


def test_an_unwritable_cache_only_costs_the_cache(tmp_path, parses):
    path = tmp_path / "one.kb"
    path.write_text("Object hum\n[event01-of ^ [buzz hum]]\n", encoding="utf-8")
    (tmp_path / "__pycache__").write_bytes(b"not a directory")
    for _ in range(2):
        loads_as_text(path, parses)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["__pycache__", "one.kb"]
    assert (tmp_path / "__pycache__").read_bytes() == b"not a directory"


def test_a_file_listed_twice_loads_as_before(tmp_path, parses, scripts_text):
    path = str(tmp_path / "scripts.kb")
    Path(path).write_text(scripts_text, encoding="utf-8")
    want = KnowledgeBase.from_texts([(path, scripts_text)] * 2)
    assert [d.code for d in want.diagnostics].count("DuplicateBlock") > 0
    for _ in range(2):  # cold, then warm
        assert_same_base(KnowledgeBase.from_paths([path, path]), want)


def test_a_file_named_by_another_path_reads_the_same_entry(tmp_path, parses, monkeypatch):
    path = tmp_path / "one.kb"
    path.write_text("Object hum\n[event01-of ^ [buzz hum]]\nObject bad\n[event01-of ^ Bad]\n",
                    encoding="utf-8")
    KnowledgeBase.from_paths([path])
    monkeypatch.chdir(tmp_path)
    del parses[:]
    kb = KnowledgeBase.from_paths(["one.kb"])
    assert parses == []
    assert {(b.file, d.file) for b in kb.blocks for d in kb.diagnostics} == {("one.kb", "one.kb")}


def test_a_set_named_by_relative_and_absolute_paths_speaks_each_callers_spelling(
        tmp_path, parses, monkeypatch):
    texts = [("a.kb", "Object hum\n[event01-of ^ [buzz hum]]\n==room//\nxy    x:hum\n"),
             ("sub/b.kb", "Object bad\n[event01-of ^ Bad]\nObject hum\n[ako ^ noise]\n")]
    absolute = write_base(tmp_path, texts)
    monkeypatch.chdir(tmp_path)
    relative = [name for name, _ in texts]
    for first, second in ((absolute, relative), (relative, absolute)):
        clear_entries(absolute)
        want = KnowledgeBase.from_texts([(p, t) for p, (_, t) in zip(second, texts)])
        assert {d.file for d in want.diagnostics} == set(second)
        KnowledgeBase.from_paths(first)
        del parses[:]
        assert_same_base(KnowledgeBase.from_paths(second), want)
        assert parses == []
        assert len(entries(absolute)) == 1


def test_reordered_files_are_another_set(tmp_path, parses):
    texts = [("a.kb", "Object hum\n[event01-of ^ [buzz hum]]\n"),
             ("b.kb", "Object hum\n[event01-of ^ [fizz hum]]\n[ako ^ noise]\n"),
             ("c.kb", "Object hum\n[ako ^ sound]\n")]
    paths = write_base(tmp_path, texts)
    # the same first file, so both entries sit beside it
    orders = [paths, [paths[0], paths[2], paths[1]]]
    for order in orders:
        del parses[:]
        kb = KnowledgeBase.from_paths(order)
        assert parses == order
        assert_same_base(kb, KnowledgeBase.from_texts(
            [(p, Path(p).read_text("utf-8")) for p in order]))
    assert len(entries(paths)) == 2
    for order in orders:
        want = KnowledgeBase.from_texts([(p, Path(p).read_text("utf-8")) for p in order])
        del parses[:]
        assert_same_base(KnowledgeBase.from_paths(order), want)
        assert parses == []


def test_editing_one_file_of_a_set_loads_the_new_texts(tmp_path, parses, core_text,
                                                       scripts_text, demo_text):
    named = [("core.kb", core_text), ("scripts.kb", scripts_text), ("demo.kb", demo_text)]
    paths = write_base(tmp_path, named)
    check_cold_and_warm(paths, parses)
    edited = scripts_text.replace("[duration-of ^ NUMBER:second:3600]",
                                  "[duration-of ^ NUMBER:second:60]\n[likes ^ quiet]")
    assert edited != scripts_text
    Path(paths[1]).write_text(edited, encoding="utf-8")
    want = KnowledgeBase.from_texts(
        [(p, Path(p).read_bytes().decode("utf-8")) for p in paths])
    for expect in (paths, []):  # the whole set is parsed again, then read
        del parses[:]
        kb = KnowledgeBase.from_paths(paths)
        assert parses == expect
        assert_same_base(kb, want)
    assert "quiet" in kb.ontology and len(entries(paths)) == 1


PARTS = ("diagnostics", "errors", "_census", "blocks", "_sites", "index")
TABLES = ("_by_phrase", "_reach", "_lexicon")
# every lazy section of a base read from an entry; a lexicon table is named
# by its kind and language
LAZY = {*PARTS, *(f"{table} {lang.value}" for table in TABLES for lang in Language)}


def undecoded(kb) -> set[str]:
    """The lazy sections of a base read from an entry that nothing has read yet."""
    return {name for name in PARTS if name not in vars(kb)} | {
        f"{table} {lang.value}" for table in TABLES for lang in Language
        if lang not in getattr(kb.ontology, table)}


def test_a_read_entry_decodes_each_section_when_it_is_first_read(
        tmp_path, monkeypatch, core_text, scripts_text, demo_text):
    (path,) = write_base(tmp_path, [("scripts.kb", scripts_text)])
    want = KnowledgeBase.from_paths([path])
    kb = KnowledgeBase.from_paths([path])
    assert dict(kb._field_assertions) == {}
    assert undecoded(kb) == LAZY
    script = kb.script_concepts()[0]
    assert kb._field_assertions[script] == want._field_assertions[script]
    assert list(kb._field_assertions) == [script]
    assert kb.index == want.index and undecoded(kb) == LAZY - {"index"}
    assert kb.ontology.lookup_phrase("blackout", "English") == ("blackout",)
    assert undecoded(kb) == LAZY - {"index", "_by_phrase English"}
    assert kb.ontology.lexemes_of("blackout", "French") == want.ontology.lexemes_of(
        "blackout", "French")
    assert undecoded(kb) == LAZY - {"index", "_by_phrase English", "_lexicon French"}
    assert kb._census == want._census and kb.errors == []
    assert kb.diagnostics == want.diagnostics and len(kb.diagnostics) > 10
    assert undecoded(kb) == {"blocks", "_sites", "_by_phrase French", "_reach English",
                             "_reach French", "_lexicon English"}

    # each warm command decodes the error list and what its query reads
    # alone: neither the diagnostics nor the blocks, nor the census rows or
    # the French tables unless it reads them
    fixtures = write_base(tmp_path / "fixtures", [
        ("core.kb", core_text), ("scripts.kb", scripts_text), ("demo.kb", demo_text)])
    flags = [f for p in fixtures for f in ("--kb", p)]
    invoke(*flags, "stats")  # writes the set's entry
    loaded, load = [], cli._load
    monkeypatch.setattr(cli, "_load", lambda paths: loaded.append(load(paths)) or loaded[-1])
    for command, decoded in [
        (["show", "blackout"], {"errors"}),
        (["grid", "hotel-room1"], {"errors"}),
        (["stats"], {"errors", "_census"}),
        (["stats", "--csv"], {"errors", "_census"}),
        (["ask", "What does a waiter do?"], {"errors", "_by_phrase English", "index"}),
        (["ask", "How long does eat in a restaurant take?"], {"errors", "_by_phrase English"}),
    ]:
        code, out, err = invoke(*flags, *command)
        assert code == 0 and out and not err, command
        assert undecoded(loaded[-1]) == LAZY - decoded, command
    assert len(loaded) == 6


def test_a_read_base_keeps_reading_its_entry_once_replaced_or_deleted(tmp_path, scripts_text):
    (path,) = write_base(tmp_path, [("scripts.kb", scripts_text)])
    want = KnowledgeBase.from_texts([(path, scripts_text)])
    KnowledgeBase.from_paths([path])
    # neither base has decoded a lazy section yet
    first, second = KnowledgeBase.from_paths([path]), KnowledgeBase.from_paths([path])
    Path(path).write_text(scripts_text + "Object quiet\n", encoding="utf-8")
    assert "quiet" in KnowledgeBase.from_paths([path]).ontology  # a new entry replaces it
    assert_same_base(first, want)
    clear_entries([path])
    assert_same_base(second, want)


def test_a_read_base_closes_its_entry_when_it_is_freed(tmp_path, scripts_text):
    (path,) = write_base(tmp_path, [("scripts.kb", scripts_text)])
    KnowledgeBase.from_paths([path])
    kb = KnowledgeBase.from_paths([path])
    fd = kb._stored["payload"]._fd
    os.fstat(fd)
    del kb  # no cycle holds a base, so the last reference closes the file
    with pytest.raises(OSError):
        os.fstat(fd)


def test_a_non_utf8_file_is_a_load_error_and_writes_no_entry(tmp_path):
    latin = tmp_path / "latin.kb"
    latin.write_bytes(b"Object caf\xe9\n")
    for _ in range(2):
        with pytest.raises(KbError, match=re.escape(f"{latin}: 'utf-8' codec can't decode "
                                                    "byte 0xe9")):
            KnowledgeBase.from_paths([latin])
    assert not entries([latin])


def test_line_ends_and_a_byte_order_mark_read_as_open_reads_them(tmp_path):
    path = tmp_path / "crlf.kb"
    path.write_bytes(b"\xef\xbb\xbfObject hum\r\n[event01-of ^\r[buzz hum]]\r\n")
    with open(path, encoding="utf-8-sig") as f:
        text = f.read()
    assert read_text(path) == text
    # the parser applies the text rule, so the bytes as decoded load the same
    raw = path.read_bytes().decode("utf-8")
    for _ in range(2):
        kb = KnowledgeBase.from_paths([path])
        assert_same_base(kb, KnowledgeBase.from_texts([(str(path), text)]))
        assert_same_base(kb, KnowledgeBase.from_texts([(str(path), raw)]))


def nested(depth: int) -> str:
    """A script whose one event holds ``depth`` assertions, each nested in the
    one before."""
    return "Object x\n[event01-of ^ " + "[a " * depth + "b" + "]" * depth + "]\n"


def test_the_deepest_nesting_loads_and_one_level_more_is_an_error(tmp_path, parses):
    bases = []
    for depth in (parser._MAX_DEPTH, parser._MAX_DEPTH + 1):
        (path,) = write_base(tmp_path, [(f"deep{depth}.kb", nested(depth))])
        want = KnowledgeBase.from_texts([(path, Path(path).read_text("utf-8"))])
        for parsed in ([path], []):  # cold, then warm: the entry is written either way
            del parses[:]
            assert_same_base(KnowledgeBase.from_paths([path]), want)
            assert parses == parsed
        bases.append(want)
    deepest, deeper = bases
    assert deepest.errors == [] and deepest.script_concepts() == ["x"]
    # the bracket that opens the level too many
    col = len("[event01-of ^ ") + 3 * parser._MAX_DEPTH + 1
    assert [(d.line, d.col, d.code) for d in deeper.diagnostics] == [(2, col, "KbSyntaxError")]
    assert deeper.blocks == []


@pytest.mark.parametrize("command", [["show", "x"], ["recognize", "a b"], ["validate"]])
def test_a_base_nested_too_deeply_is_a_load_error_cold_and_warm(tmp_path, command):
    (path,) = write_base(tmp_path, [("deep.kb", nested(3000))])
    argv = command + [path] if command == ["validate"] else ["--kb", path, *command]
    cold = invoke(*argv)
    assert entries([path])
    assert invoke(*argv) == cold
    code, out, err = cold
    assert code == 2
    assert f"{path}:2:" in out + err
    assert "Traceback" not in out + err


def test_a_cold_load_builds_the_index_once(tmp_path, monkeypatch):
    (path,) = write_base(tmp_path, [("hum.kb", "Object buzz\n[English] buzz\n\n"
                                               "Object hum\n[event01-of ^ [buzz x]]\n")])
    original, builds = KnowledgeBase._build_index, []

    def counted(kb):
        builds.append(kb)
        return original(kb)

    monkeypatch.setattr(KnowledgeBase, "_build_index", counted)
    assert invoke("--kb", path, "recognize", "buzz") == (
        0, "score 1.0 for script hum based on buzz\n", "")
    assert entries([path])
    assert len(builds) == 1


def test_loads_racing_to_write_one_entry_all_answer_alike(tmp_path, scripts_text):
    path = str(tmp_path / "scripts.kb")
    Path(path).write_text(scripts_text, encoding="utf-8")
    want = KnowledgeBase.from_texts([(path, scripts_text)])
    failures = []

    def load():
        try:
            for _ in range(5):
                assert_same_base(KnowledgeBase.from_paths([path]), want)
        except Exception as e:  # reported by the main thread
            failures.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=load) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert [p.suffix for p in (tmp_path / "__pycache__").iterdir()] == [".kbs"]

import gc
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import scriptkb
import scriptkb.cli
from scriptkb.cli import bundled_kb_paths, run
from conftest import collector_state, data_path


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, out_err=err)
    return code, out.getvalue(), err.getvalue()


def kb_flags(*names):
    flags = []
    for name in names:
        flags += ["--kb", data_path(name)]
    return flags


ALL = kb_flags("core.kb", "scripts.kb", "demo.kb")
PAPER = kb_flags("core.kb", "scripts.kb")


def test_no_arguments_prints_usage_to_stderr():
    code, out, err = invoke()
    assert code == 1
    assert "usage" in err.lower()
    assert out == ""


def test_unknown_command_is_usage_error():
    code, _, err = invoke("frobnicate")
    assert code == 1


def test_bundled_paths_exist():
    import os
    assert all(os.path.exists(p) for p in bundled_kb_paths())


def test_validate_fixtures_clean():
    code, out, err = invoke("validate", data_path("core.kb"),
                            data_path("scripts.kb"), data_path("demo.kb"))
    assert code == 0
    assert "error" not in out


def test_validate_reports_errors(tmp_path):
    bad = tmp_path / "bad.kb"
    bad.write_text("Object thing\n[broken !!!]\n", encoding="utf-8")
    code, out, err = invoke("validate", str(bad))
    assert code == 2
    assert "error" in out


def test_validate_names_the_file_of_a_duplicate_block(tmp_path):
    a, b = tmp_path / "a.kb", tmp_path / "b.kb"
    a.write_text("Object hum\n[event01-of ^ [buzz hum]]\n", encoding="utf-8")
    b.write_text("\nObject hum\n\n[event02-of ^ [fade hum]]\n", encoding="utf-8")
    code, out, _ = invoke("validate", str(a), str(b))
    assert code == 0
    assert f"{b}:4:1: warning: undeclared concept 'fade' registered under 'concept'" in out


def test_validate_reports_an_undeclared_symbol_at_its_first_line(tmp_path):
    # the second block of `a` is read beside the first, but line 6 comes first
    path = tmp_path / "m.kb"
    path.write_text("Object a\n[ako ^ thing]\n\nObject b\n[ako ^ thing]\n[likes ^ zzz]\n\n"
                    "Object a\n[likes ^ zzz]\n", encoding="utf-8")
    code, out, _ = invoke("validate", str(path))
    assert code == 0
    assert out.splitlines()[1:] == [
        f"{path}:{line}:1: warning: undeclared concept {name!r} registered under 'concept'"
        for line, name in ((2, "thing"), (6, "likes"), (6, "zzz"))]


def test_validate_missing_file():
    code, _, err = invoke("validate", "/no/such/file.kb")
    assert code == 2
    assert "load error" in err


def test_validate_json(tmp_path):
    bad = tmp_path / "bad.kb"
    bad.write_text("Object thing\n[broken !!!]\n", encoding="utf-8")
    code, out, _ = invoke("--json", "validate", str(bad))
    assert code == 2
    diags = json.loads(out)["diagnostics"]
    assert any(d["severity"] == "error" and d["line"] == 2 for d in diags)


def test_recognize_reproduces_published_output():
    code, out, _ = invoke(*ALL, "recognize", "John poured shampoo on his hair.")
    assert code == 0
    assert out == ("score 2.0 for script go-for-a-haircut based on shampoo, hair\n"
                   "score 2.0 for script take-shower based on shampoo, hair\n")


def test_recognize_json_same_information():
    _, text_out, _ = invoke(*ALL, "recognize", "John poured shampoo on his hair.")
    _, json_out, _ = invoke(*ALL, "--json", "recognize",
                            "John poured shampoo on his hair.")
    data = json.loads(json_out)
    assert [(d["script"], d["score"], d["evidence"]) for d in data] == [
        ("go-for-a-haircut", 2.0, ["shampoo", "hair"]),
        ("take-shower", 2.0, ["shampoo", "hair"])]
    for d in data:
        assert f"score {d['score']:.1f} for script {d['script']}" in text_out


def test_stats_three_bundled_scripts():
    code, out, _ = invoke(*PAPER, "stats")
    assert code == 0
    assert "blackout" in out
    for value in ("9.67", "6.33", "1.67", "5.67"):
        assert value in out
    assert "ThoughtTreasure (published)" in out


def test_stats_csv():
    code, out, _ = invoke(*PAPER, "stats", "--csv")
    assert code == 0
    assert "blackout,5,2,3,5" in out
    assert "have-filling-done,12,11,1,7" in out
    assert "mail-letter-at-post-office,12,6,1,5" in out


def test_stats_json():
    code, out, _ = invoke(*PAPER, "--json", "stats")
    data = json.loads(out)
    assert data["summary"]["scripts"] == 3
    assert data["summary"]["avg_subevents"] == 9.67


def test_show_script_text_and_json():
    code, out, _ = invoke(*ALL, "show", "blackout")
    assert code == 0
    assert "01 human" in out
    assert "3600 second" in out
    code, json_out, _ = invoke(*ALL, "--json", "show", "blackout")
    data = json.loads(json_out)
    assert data["roles"] == {"01": "human", "02": "electricity-network"}
    assert data["duration-of"] == {"unit": "second", "value": 3600.0, "text": "3600"}
    assert data["performed-in"] == ["apartment", "house", "office"]
    assert len(data["events"]) == 2
    assert len(data["emotion-of"]) == 3


def test_show_non_script_is_query_error():
    code, _, err = invoke(*ALL, "show", "green-pea")
    assert code == 3
    code, _, err = invoke(*ALL, "show", "not-a-concept-at-all")
    assert code == 3


SHOW_BLACKOUT = """\
script blackout
roles:
  01 human
  02 electricity-network
events:
  01 [anger human]
  01 [electronic-device-broken electricity-network]
  01 [unhappy-surprise human]
  01 [worry human]
  02 [fetch-from human na light-source]
emotions:
  [anger human]
  [unhappy-surprise human]
  [worry human]
places: apartment, house, office
duration: 3600 second
period: 3.1536e+07 second
"""


@pytest.mark.parametrize("argv, expected", [
    (["show", "blackout"], SHOW_BLACKOUT),
    (["ask", "What does a dog do?"],
     "walk-the-dog (role 02)\n"
     "  [attach-to dog-walker leash dog]\n"
     "  [ptrans-walk dog na street]\n"),
    (["ask", "What does a waiter do?"],
     "blackout (role 01)\n"
     "  [anger human]\n"
     "  [unhappy-surprise human]\n"
     "  [worry human]\n"
     "  [fetch-from human na light-source]\n"
     "eat-in-restaurant (role 02) -> wait-tables\n"
     "  [order customer waiter food]\n"
     "  [serve waiter customer food]\n"
     "  [pay customer waiter]\n"
     "wait-tables (role 01)\n"
     "  [take-order waiter customer]\n"
     "  [serve waiter customer food]\n"),
    (["ask", "What does sleep consist of?"],
     "01 [lie-on sleeper bed]\n"
     "02 [asleep sleeper]\n"),
])
def test_exact_text_output(argv, expected):
    assert invoke(*ALL, *argv) == (0, expected, "")


@pytest.mark.parametrize("argv", [
    ["show", "green-pea"],
    ["timeline", "green-pea"],
    ["ask", "How long does green pea take?"],
])
def test_non_script_is_one_query_error(argv):
    assert invoke(*ALL, *argv) == (3, "", "error: 'green-pea' is not a script (no events)\n")


def test_timeline_unroll(tmp_path):
    kb_file = tmp_path / "loop.kb"
    kb_file.write_text("Object looper\n[event01-of ^ [sing looper]]\n"
                       "[event02-of ^ [rest looper]]\n"
                       "[event03-of ^ [goto event01-of]]\n", encoding="utf-8")
    code, out, _ = invoke("--kb", str(kb_file), "timeline", "looper", "--unroll", "2")
    assert code == 0
    indices = [line.split()[0] for line in out.splitlines()]
    assert indices == ["01", "02", "01", "02", "01", "02"]


def test_ask_text():
    code, out, _ = invoke(*ALL, "ask", "How much does a filling cost?")
    assert code == 0
    assert "200 USD" in out


def test_ask_json():
    code, out, _ = invoke(*ALL, "--json", "ask", "What is the result of sleep?")
    data = json.loads(out)
    assert data["kind"] == "result-of"
    assert data["subject"] == "sleep"
    assert data["payload"] == [{"predicate": "restedness", "args": ["sleeper"]}]


def test_ask_unrecognized_template():
    code, _, err = invoke(*ALL, "ask", "Why is the sky blue?")
    assert code == 3
    assert "error" in err


def test_grid_render_and_cell():
    code, out, _ = invoke(*ALL, "grid", "hotel-room1")
    assert code == 0
    assert out.startswith("==hotel-room1//")
    code, out, _ = invoke(*ALL, "grid", "hotel-room1", "--at", "10,1")
    assert out.strip() == "minibar"
    code, out, _ = invoke(*ALL, "grid", "hotel-room1", "--at", "6,1")
    assert out.strip() == "(empty)"


def test_grid_unknown_name():
    code, _, err = invoke(*ALL, "grid", "ballroom9")
    assert code == 3


def test_cyc_extract():
    code, out, _ = invoke("cyc-extract", data_path("cyc-rules.txt"),
                          "--events", data_path("cyc-events.txt"))
    assert code == 0
    tuples = out.split("\n\n")[0].splitlines()
    assert "Bathing:subEvents:TurningOffWater" in tuples
    assert "Bathing:subEvents:WashingHair" in tuples
    assert "BirthdayParty:Other:other" in tuples
    assert "DancingProcess-Human:actsInCapacity:Dancer" in tuples
    assert "ChangingOil:eventOccursAt:ServiceStation" in tuples
    assert tuples == sorted(tuples)


def test_cyc_extract_json():
    code, out, _ = invoke("--json", "cyc-extract", data_path("cyc-rules.txt"),
                          "--events", data_path("cyc-events.txt"))
    data = json.loads(out)
    events = {row["event"]: row for row in data["census"]}
    assert events["Bathing"]["subevents"] == 2
    assert data["summary"]["scripts"] == len(data["census"])
    assert data["summary"]["events"] == 17  # comment lines are not event names


def test_cyc_extract_refuses_an_atom_outside_any_form(tmp_path):
    rules, events = tmp_path / "rules.txt", tmp_path / "events.txt"
    rules.write_text("BirthdayParty stray words\n(subEvents Bathing WashingHair)\n",
                     encoding="utf-8")
    events.write_text("BirthdayParty\n", encoding="utf-8")
    code, out, err = invoke("cyc-extract", str(rules), "--events", str(events))
    assert (code, out) == (2, "")
    assert err == "load error: 1:1: atom 'BirthdayParty' outside any form\n"


def _strict_json(text):
    """``json.loads`` that refuses ``NaN``, ``Infinity`` and ``-Infinity``."""
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv", [("show", "hum-along"),
                                  ("ask", "How long does hum along take?")])
def test_json_gives_null_for_a_measure_beyond_a_float(argv, tmp_path):
    base = tmp_path / "big.kb"
    base.write_text("Object hum-along\n[English] hum along\n[event01-of ^ [hum human]]\n"
                    "[duration-of ^ NUMBER:second:1e999]\n", encoding="utf-8")
    code, out, err = invoke("--kb", str(base), "--json", *argv)
    assert (code, err) == (0, "")
    data = _strict_json(out)
    measure = data["duration-of"] if argv[0] == "show" else data["payload"]
    assert measure == {"unit": "second", "value": None, "text": "1e999"}
    code, out, _ = invoke("--kb", str(base), *argv)
    assert code == 0 and "1e999 second" in out


def test_env_var_supplies_default_paths(monkeypatch):
    import os
    monkeypatch.setenv("SCRIPTKB_KB", os.pathsep.join(
        [data_path("core.kb"), data_path("scripts.kb")]))
    code, out, _ = invoke("stats", "--csv")
    assert code == 0
    assert "blackout,5,2,3,5" in out


def test_output_is_deterministic():
    for argv in (ALL + ["show", "have-filling-done"],
                 PAPER + ["stats"],
                 ALL + ["recognize", "shampoo hair dog bed"]):
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second


def test_help_exits_zero():
    code, *_ = invoke("--help")
    assert code == 0


@pytest.mark.parametrize("argv, usage", [
    (["--help"], "usage: scriptkb [-h]"),
    (["ask", "--help"], "usage: scriptkb ask [-h] question"),
])
def test_help_goes_to_the_given_stream(argv, usage, capsys):
    code, out, err = invoke(*argv)
    assert code == 0
    assert out.startswith(usage)
    assert err == ""
    assert capsys.readouterr() == ("", "")



# -- one argument parser per process ---------------------------------------------

HELP_AND_USAGE_ERRORS = [
    ["--help"], *([command, "--help"] for command in (
        "validate", "show", "timeline", "recognize", "ask", "stats", "grid", "cyc-extract")),
    [], ["--json"], ["bogus"], ["--bogus", "stats"], ["--kb"], ["show"], ["validate"],
    ["ask"], ["grid"], ["cyc-extract", "rules"], ["stats", "--bogus"],
    ["timeline", "x", "--unroll", "z"], ["recognize", "x", "--language", "German"],
]


def test_help_and_usage_errors_match_a_parser_built_for_each_run(monkeypatch):
    cached = [invoke(*argv) for argv in HELP_AND_USAGE_ERRORS * 2]
    monkeypatch.setattr(scriptkb.cli, "_build_parser", scriptkb.cli._build_parser.__wrapped__)
    fresh = [invoke(*argv) for argv in HELP_AND_USAGE_ERRORS * 2]
    assert cached == fresh
    assert {code for code, _, _ in fresh} == {0, 1}


def test_kb_flags_do_not_carry_over_to_the_next_run(tmp_path, monkeypatch):
    monkeypatch.delenv("SCRIPTKB_KB", raising=False)
    own = tmp_path / "own.kb"
    own.write_text("Object hum\n[role01-of ^ human]\n[event01-of ^ [buzz human]]\n",
                   encoding="utf-8")
    assert invoke("--kb", str(own), "show", "hum")[0] == 0
    assert scriptkb.cli._build_parser().parse_args(["stats"]).kb == []
    assert invoke("show", "hum") == (3, "", "error: unknown concept 'hum'\n")
    assert invoke("show", "blackout")[0] == 0


@pytest.mark.parametrize("error, success", [
    (["bogus"], ["show", "blackout"]),
    (["timeline", "blackout", "--unroll", "z"], ["timeline", "blackout"]),
    (["--kb"], ["--json", "stats"]),
    (["--json", "show", "no-such-concept"], ["show", "blackout"]),
    (["recognize", "hair", "--language", "German"], ["recognize", "shampoo in my hair"]),
])
def test_an_error_run_leaves_the_next_run_as_it_would_be_alone(error, success, monkeypatch):
    monkeypatch.delenv("SCRIPTKB_KB", raising=False)
    alone = []
    for argv in (error, success):
        scriptkb.cli._build_parser.cache_clear()
        alone.append(invoke(*argv))
    assert alone[0][0] != 0 and alone[1][0] == 0
    assert [invoke(*error), invoke(*success), invoke(*error)] == [*alone, alone[0]]

def test_non_utf8_kb_is_a_load_error(tmp_path):
    latin = tmp_path / "latin.kb"
    latin.write_bytes(b"\xff\xfeObject caf\xe9\n")
    code, out, err = invoke("--kb", str(latin), "stats")
    assert (code, out) == (2, "")
    assert err.startswith("load error: ") and "Traceback" not in err


def test_non_utf8_cyc_rules_are_a_load_error(tmp_path):
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"\xff\xfe(subEvents Bathing WashingHair)\n")
    code, out, err = invoke("cyc-extract", str(latin), "--events", data_path("cyc-events.txt"))
    assert (code, out) == (2, "")
    assert err.startswith("load error: ") and "Traceback" not in err


def test_non_utf8_load_error_names_the_file(tmp_path):
    latin = tmp_path / "latin.kb"
    latin.write_bytes(b"\xff\xfeObject caf\xe9\n")
    code, out, err = invoke("--kb", data_path("core.kb"), "--kb", str(latin), "stats")
    assert (code, out) == (2, "")
    assert err.startswith(f"load error: {latin}: 'utf-8' codec can't decode byte 0xff")
    for rules, events in ((latin, data_path("cyc-events.txt")),
                          (data_path("cyc-rules.txt"), latin)):
        code, out, err = invoke("cyc-extract", str(rules), "--events", str(events))
        assert (code, out) == (2, "")
        assert err.startswith(f"load error: {latin}: 'utf-8' codec can't decode byte 0xff")



_BOM = "\ufeff".encode("utf-8")


def test_a_byte_order_mark_opens_a_kb_file_quietly(tmp_path):
    bom = tmp_path / "bom.kb"
    bom.write_bytes(_BOM + b"Object thing\n[English] thing\n[ako ^ concept]\n")
    code, out, _ = invoke("validate", str(bom))
    assert code == 0 and "error" not in out
    # through --kb, a file that opens with a block header
    scripts = Path(data_path("scripts.kb")).read_text("utf-8")
    marked = tmp_path / "scripts.kb"
    marked.write_bytes(_BOM + scripts[scripts.index("Object "):].encode("utf-8"))
    for command in (["show", "blackout"], ["stats"]):
        plain = invoke(*kb_flags("core.kb", "scripts.kb"), *command)
        assert plain[0] == 0 and plain[1]
        assert invoke("--kb", data_path("core.kb"), "--kb", str(marked), *command) == plain


def test_a_byte_order_mark_opens_either_cyc_extract_input(tmp_path):
    # the first event name is the one a mark would hide: the second rule
    # grounds nothing, so it gives an Other tuple only for a known event
    texts = {"rules": "(subEvents Bathing WashingHair)\n(likes BirthdayParty Cake)\n",
             "events": "BirthdayParty\nBathing\n"}
    paths = {}
    for name, text in texts.items():
        for marked in (False, True):
            paths[name, marked] = path = tmp_path / f"{name}-{marked}.txt"
            path.write_bytes((_BOM if marked else b"") + text.encode("utf-8"))
    plain = invoke("cyc-extract", str(paths["rules", False]),
                   "--events", str(paths["events", False]))
    assert plain[0] == 0 and plain[1].startswith(
        "Bathing:subEvents:WashingHair\nBirthdayParty:Other:other\n")
    for rules, events in ((True, False), (False, True), (True, True)):
        assert invoke("cyc-extract", str(paths["rules", rules]),
                      "--events", str(paths["events", events])) == plain


# each command, whether it builds the script index, and whether it builds the
# site map (assertion positions)
_LAZY_BUILDS = [
    (["show", "blackout"], False, False),
    (["timeline", "blackout"], False, False),
    (["ask", "What does a blackout consist of?"], False, False),
    (["ask", "How long does a blackout take?"], False, False),
    (["recognize", "John poured shampoo on his hair."], True, False),
    (["ask", "What does a dog do?"], True, False),
    (["stats"], False, False),
    (["stats", "--csv"], False, False),
    (["--json", "stats"], False, False),
    (["validate"], False, True),  # of the base's files
]


def fixture_copy(root) -> list[str]:
    """The paths of a copy of the bundled files under ``root``."""
    return [shutil.copy(p, root) for p in bundled_kb_paths()]


# ids from the command and the index column only, so each case keeps its name
@pytest.mark.parametrize("argv, builds_index, builds_sites", _LAZY_BUILDS,
                         ids=[f"argv{i}-{index}" for i, (_, index, _) in enumerate(_LAZY_BUILDS)])
def test_only_whole_base_queries_build_the_script_index(argv, builds_index, builds_sites,
                                                        tmp_path, monkeypatch):
    # a warm load: the copy's entry is written first, whatever ran before
    files = fixture_copy(tmp_path)
    scriptkb.KnowledgeBase.from_paths(files)
    if argv == ["validate"]:
        argv = argv + files
    else:
        argv = [flag for p in files for flag in ("--kb", p)] + argv
    loaded = []
    load = scriptkb.cli._load

    def recorded(paths):
        loaded.append(load(paths))
        return loaded[-1]

    monkeypatch.setattr(scriptkb.cli, "_load", recorded)
    code, out, _ = invoke(*argv)
    assert code == 0 and out
    assert ("index" in vars(loaded[0])) == builds_index
    assert ("_sites" in vars(loaded[0])) == builds_sites


def test_a_cold_load_holds_the_index_it_stored(tmp_path):
    files = fixture_copy(tmp_path)
    cold = scriptkb.KnowledgeBase.from_paths(files)
    assert "index" in vars(cold)
    warm = scriptkb.KnowledgeBase.from_paths(files)
    assert "index" not in vars(warm)
    assert warm.index == cold.index


def test_the_script_index_builds_no_script_view(core_text, scripts_text, demo_text,
                                                built_scripts):
    kb = scriptkb.KnowledgeBase.from_texts([
        ("core.kb", core_text), ("scripts.kb", scripts_text), ("demo.kb", demo_text)])
    assert kb.index.by_mention and kb.index.by_role
    assert built_scripts == []


def test_validate_builds_each_script_once(built_scripts):
    code, _, _ = invoke("validate", *bundled_kb_paths())
    assert code == 0
    kb = scriptkb.KnowledgeBase.from_paths(bundled_kb_paths())
    assert sorted(built_scripts) == kb.script_concepts()


@pytest.mark.parametrize("argv", [["stats"], ["stats", "--csv"], ["--json", "stats"]])
def test_stats_builds_the_census_once(argv, monkeypatch):
    import scriptkb.cli
    import scriptkb.stats
    calls = []
    census = scriptkb.stats.census

    def counted(kb):
        calls.append(kb)
        return census(kb)

    for module in (scriptkb.stats, scriptkb.cli):  # every module that binds the name
        monkeypatch.setattr(module, "census", counted)
    code, out, _ = invoke(*PAPER, *argv)
    assert code == 0 and out
    assert len(calls) == 1


def test_malformed_field_fails_validate_and_refuses_queries(tmp_path):
    bad = tmp_path / "bad.kb"
    bad.write_text("Object thing\n[event01-of ^ [hum thing]]\n[duration-of ^ hello]\n",
                   encoding="utf-8")
    message = f"{bad}:3:1: error: thing: duration-of needs a measure argument"
    code, out, _ = invoke("validate", str(bad))
    assert code == 2
    assert message in out.splitlines()
    code, out, err = invoke("--kb", str(bad), "recognize", "hum")
    assert (code, out) == (2, "")
    assert message in err.splitlines()


def test_validate_runs_the_script_checks(tmp_path):
    looper = tmp_path / "looper.kb"
    looper.write_text("Object looper\n[event01-of ^ [sing looper]]\n"
                      "[event02-of ^ [goto event07-of]]\n", encoding="utf-8")
    code, out, _ = invoke("validate", str(looper))
    assert code == 2
    assert f"{looper}:3:1: error: goto in group 02 targets missing group 07" in out


def test_a_goto_to_a_missing_group_refuses_the_base(tmp_path):
    goto = tmp_path / "goto.kb"
    goto.write_text("Object looper\n[event01-of ^ [sing singer]]\n"
                    "[event02-of ^ [goto event09-of]]\n", encoding="utf-8")
    message = f"{goto}:3:1: error: goto in group 02 targets missing group 09"
    assert invoke("--kb", str(goto), "timeline", "looper") == (2, "", message + "\n")
    code, out, _ = invoke("validate", str(goto))
    assert code == 2
    assert [line for line in out.splitlines() if "targets missing group" in line] == [message]


def test_a_goto_to_a_concept_is_an_event_that_recognition_reads(tmp_path):
    # only [goto eventNN-of] restarts a timeline; [goto lobby] is an ordinary event
    lobby = tmp_path / "lobby.kb"
    lobby.write_text("Object lobby-wait\n[role01-of ^ guest]\n[event01-of ^ [sit guest]]\n"
                     "[event02-of ^ [goto lobby]]\n\nObject lobby\n[English] lobby\n",
                     encoding="utf-8")
    assert invoke("--kb", str(lobby), "timeline", "lobby-wait") == (
        0, "01 [sit guest]\n02 [goto lobby]\n", "")
    assert invoke("--kb", str(lobby), "recognize", "the lobby") == (
        0, "score 1.0 for script lobby-wait based on lobby\n", "")


def test_validate_fixtures_lists_script_notes():
    code, out, _ = invoke("--json", "validate", *bundled_kb_paths())
    assert code == 0
    notes = [d for d in json.loads(out)["diagnostics"] if d["code"] == "EventArgOutsideRoles"]
    assert notes and all(d["severity"] == "info" and d["line"] > 0 for d in notes)


def test_validate_skips_script_checks_after_load_errors(tmp_path):
    bad = tmp_path / "bad.kb"
    bad.write_text("Object looper\n[event01-of ^ [sing looper]]\n"
                   "[event02-of ^ [goto event07-of]]\n[broken !!!]\n", encoding="utf-8")
    code, out, _ = invoke("validate", str(bad))
    assert code == 2
    assert "goto" not in out


@pytest.mark.parametrize("module", ["scriptkb", "scriptkb.cli"])
def test_python_dash_m_runs_the_cli(module, tmp_path):
    bad = tmp_path / "bad.kb"
    bad.write_text("Object thing\n[broken !!!]\n", encoding="utf-8")
    src = str(Path(scriptkb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", module, "validate", str(bad)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert f"{bad}:2:" in proc.stdout


# -- the collector during a command ----------------------------------------------

_UNCLOSED = "Object x\n[event01-of ^ [hum x]\n"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, expected", [
    (ALL + ["show", "blackout"], 0),
    (["bogus"], 1),
    ([], 1),
    (["--kb", "missing.kb", "stats"], 2),
    (["--kb", "unclosed.kb", "stats"], 2),
    (ALL + ["show", "no-such-concept"], 3),
    (["--help"], 0),
])
def test_run_restores_the_collector_state(argv, expected, enabled, tmp_path, monkeypatch):
    (tmp_path / "unclosed.kb").write_text(_UNCLOSED, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    with collector_state(enabled):
        code, _, _ = invoke(*argv)
        assert gc.isenabled() is enabled
    assert code == expected


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_collector_state_when_a_command_raises(enabled, monkeypatch):
    during = []

    def fail(args):
        during.append(gc.isenabled())
        raise RuntimeError("command failed")

    monkeypatch.setattr(scriptkb.cli, "_dispatch", fail)
    with collector_state(enabled):
        with pytest.raises(RuntimeError, match="command failed"):
            invoke(*ALL, "stats")
        assert gc.isenabled() is enabled
    assert during == [False]


@pytest.mark.parametrize("argv", [
    ["recognize", "John poured shampoo on his hair."],
    ["ask", "What does a waiter do?"],
])
def test_no_collection_starts_during_a_command(argv, monkeypatch):
    inside, starts = [False], []
    command = scriptkb.cli._run

    def watched(*args):
        inside[0] = True
        try:
            return command(*args)
        finally:
            inside[0] = False

    def hook(phase, info):
        if phase == "start" and inside[0]:
            starts.append(info["generation"])

    monkeypatch.setattr(scriptkb.cli, "_run", watched)
    with collector_state(True):
        gc.callbacks.append(hook)
        try:
            code, out, _ = invoke(*ALL, *argv)
        finally:
            gc.callbacks.remove(hook)
    assert code == 0 and out
    assert starts == []


def test_loading_inside_a_command_leaves_the_collector_paused(monkeypatch):
    after = []
    load = scriptkb.cli._load

    def recorded(paths):
        kb = load(paths)
        after.append(gc.isenabled())
        return kb

    monkeypatch.setattr(scriptkb.cli, "_load", recorded)
    with collector_state(True):
        code, out, _ = invoke(*ALL, "stats")
        assert gc.isenabled()
    assert code == 0 and out
    assert after == [False]


# -- output paths of a small base ------------------------------------------------

HUM = ("Object hum-along\n"
       "[English] hum along\n"
       "[role01-of ^ singer]\n"
       "[role01-script-of ^ sing-song]\n"
       "[event01-of ^ [hum singer tune]]\n"
       "\n"
       "Object singer\n"
       "[English] singer\n"
       "\n"
       "Object tune\n"
       "[English] tune\n")


@pytest.fixture()
def hum_kb(tmp_path):
    path = tmp_path / "hum.kb"
    path.write_text(HUM, encoding="utf-8")
    return ["--kb", str(path)]


def test_ask_prints_unknown_for_a_field_no_script_gives(hum_kb):
    assert invoke(*hum_kb, "ask", "How long does hum along take?") == (0, "unknown\n", "")


def test_ask_used_for_text(hum_kb):
    assert invoke(*hum_kb, "ask", "What is a tune used for?") == (
        0, "hum-along\n  [hum singer tune]\n", "")


def test_show_lists_role_scripts(hum_kb):
    code, out, err = invoke(*hum_kb, "show", "hum-along")
    assert (code, err) == (0, "")
    assert "roles:\n  01 singer\nrole scripts:\n  01 sing-song\nevents:\n" in out


def test_ask_what_does_json(hum_kb):
    code, out, err = invoke(*hum_kb, "--json", "ask", "What does a singer do?")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["kind"], data["subject"], data["sources"]) == (
        "what-does", "singer", ["hum-along"])
    assert data["payload"] == [{
        "script": "hum-along", "role": "01", "role-script": "sing-song",
        "events": [{"predicate": "hum", "args": ["singer", "tune"]}]}]


def test_json_stats_on_a_base_without_scripts(tmp_path):
    path = tmp_path / "plain.kb"
    path.write_text("Object tune\n[English] tune\n", encoding="utf-8")
    code, out, err = invoke("--kb", str(path), "--json", "stats")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"census": []}


def test_a_tab_header_after_a_continued_lexicon_line_opens_its_block(tmp_path):
    path = tmp_path / "tab.kb"
    path.write_text("Object foo\n[English] a,\nObject\tbar\n[ako ^ foo]\n", encoding="utf-8")
    assert invoke("validate", str(path)) == (0, "", "")
    assert invoke("--kb", str(path), "show", "bar") == (
        3, "", "error: 'bar' is not a script (no events)\n")

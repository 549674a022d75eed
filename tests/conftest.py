import gc
import importlib.util
import sys
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import pytest

from scriptkb.kb import KnowledgeBase


def data_text(name: str) -> str:
    return resources.files("scriptkb.data").joinpath(name).read_text("utf-8")


def data_path(name: str) -> str:
    return str(resources.files("scriptkb.data").joinpath(name))


@contextmanager
def collector_state(enabled: bool):
    """Run the block with the cyclic collector enabled or disabled, then put
    back the state the test started with."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.fixture(scope="session", autouse=True)
def bundled_data_parsed_afresh():
    """Each run starts with no snapshot entries for the bundled data, so its
    first load of each set of the bundled files parses them, whatever an
    earlier run left."""
    for entry in (Path(data_path("core.kb")).parent / "__pycache__").glob("*.kbs"):
        entry.unlink()


@pytest.fixture(scope="session")
def core_text():
    return data_text("core.kb")


@pytest.fixture(scope="session")
def scripts_text():
    return data_text("scripts.kb")


@pytest.fixture(scope="session")
def demo_text():
    return data_text("demo.kb")


@pytest.fixture(scope="session")
def bench_texts(tmp_path_factory):
    """(name, text) pairs of the base that ``bench/gen.py`` writes for seed 1
    at 500 scripts, the base the benchmark's ``cli`` workload loads."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses look their module up there
    spec.loader.exec_module(gen)
    out = tmp_path_factory.mktemp("bench")
    base = gen.generate(1, 500, out / "base", out)
    return [(name, (out / name).read_text("utf-8")) for name in base.files]


@pytest.fixture(scope="session")
def kb(core_text, scripts_text, demo_text):
    """The full bundled fixture base; immutable, shared across tests."""
    return KnowledgeBase.from_texts([
        ("core.kb", core_text),
        ("scripts.kb", scripts_text),
        ("demo.kb", demo_text),
    ])


@pytest.fixture(scope="session")
def kb_classic(core_text, scripts_text):
    """Core plus the three classic scripts only (census fixtures)."""
    return KnowledgeBase.from_texts([
        ("core.kb", core_text),
        ("scripts.kb", scripts_text),
    ])


@pytest.fixture()
def built_scripts(monkeypatch):
    """The concepts passed to ``build_script`` while the test runs, wrapped in
    every ``scriptkb`` module that binds the function."""
    from scriptkb import scripts
    original, calls = scripts.build_script, []

    def counted(kb, concept):
        calls.append(concept)
        return original(kb, concept)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "scriptkb" and vars(module).get("build_script") is original:
            monkeypatch.setattr(module, "build_script", counted)
    return calls

"""The package namespace: each public name loads its submodule on first use
and is never stored in the package, so ``import realizable`` alone loads no
submodule and a function replaced in its submodule is what the package
hands out."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import realizable

SUBMODULES = ("construct", "local", "numtheory", "realizability", "seqio", "sequences", "transforms")
SRC = str(Path(realizable.__file__).resolve().parents[1])


def fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports the
    package from this source tree."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded(after: str) -> list[str]:
    return fresh(
        f"import sys; {after}; "
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'realizable'))"
    ).split()


def test_import_loads_no_submodule():
    assert loaded("import realizable") == ["realizable"]


def test_importing_the_cli_loads_every_layer():
    # a traced benchmark pass wraps the functions of all eight layers after
    # `import realizable.cli`, reading them from sys.modules
    expected = ["realizable", "realizable.cli"] + [f"realizable.{m}" for m in SUBMODULES]
    assert loaded("import realizable.cli") == sorted(expected)


def test_first_use_loads_only_what_the_name_needs():
    mods = loaded("import realizable; realizable.check_realizable")
    assert "realizable.realizability" in mods
    assert not {"realizable.seqio", "realizable.transforms", "realizable.local"} & set(mods)


def test_submodule_names_resolve_in_a_fresh_interpreter():
    out = fresh(
        "import realizable, sys\n"
        f"for m in {SUBMODULES!r}:\n"
        "    assert getattr(realizable, m) is sys.modules['realizable.' + m], m\n"
        "print('ok')"
    )
    assert out == "ok\n"


def test_every_public_name_is_its_submodules_object():
    owners = {}
    for m in SUBMODULES:
        module = importlib.import_module(f"realizable.{m}")
        for name in module.__all__:
            owners.setdefault(name, []).append(module)
    assert realizable.__all__
    for name in realizable.__all__:
        assert len(owners.get(name, [])) == 1, name
        assert getattr(realizable, name) is getattr(owners[name][0], name), name


def test_dir_and_star_import_cover_all():
    assert set(realizable.__all__) <= set(dir(realizable))
    assert set(SUBMODULES) <= set(dir(realizable))
    namespace = {}
    exec("from realizable import *", namespace)
    assert set(realizable.__all__) <= set(namespace)


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'realizable' has no attribute 'no_such_name'$"):
        realizable.no_such_name
    with pytest.raises(ImportError):
        exec("from realizable import no_such_name", {})


def test_a_patched_function_is_seen_through_the_package(monkeypatch):
    original = realizable.realizability.check_realizable

    def fake(a, N):
        return "patched"

    monkeypatch.setattr(realizable.realizability, "check_realizable", fake)
    assert realizable.check_realizable is fake
    from realizable import check_realizable

    assert check_realizable is fake
    monkeypatch.undo()
    assert realizable.check_realizable is original
    assert "check_realizable" not in vars(realizable)

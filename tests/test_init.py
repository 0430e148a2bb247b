"""The package namespace loads each module on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ffdyck

# The child process imports the same ffdyck as this test, installed or not.
PACKAGE_ROOT = str(Path(ffdyck.__file__).resolve().parent.parent)


def loaded_after(code: str) -> set[str]:
    """Modules in sys.modules after a fresh interpreter runs `code`.

    The list is taken before the probe imports json to print it, so json
    counts only when `code` loaded it.
    """
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    script = (
        f"{code}\nimport sys\nloaded = sorted(sys.modules)\n"
        "import json\nprint(json.dumps(loaded))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    # the last line: whatever `code` printed comes before it
    return set(json.loads(out.splitlines()[-1]))


def test_import_loads_no_submodule():
    loaded = loaded_after("import ffdyck")
    assert {m for m in loaded if m.startswith("ffdyck")} == {"ffdyck"}
    assert "dataclasses" not in loaded


def test_count_command_loads_only_what_it_runs():
    loaded = loaded_after(
        "from ffdyck import cli\n"
        'cli.main(["count", "--m", "2", "--n", "5", "--language", "U"])'
    )
    assert "ffdyck.counting" in loaded
    unwanted = {
        "ffdyck.selfcheck",
        "ffdyck.trees",
        "ffdyck.grammar",
        "ffdyck.codes",
        "dataclasses",
        "inspect",
    }
    assert not unwanted & loaded


def test_tree_command_loads_only_what_it_runs():
    loaded = loaded_after('from ffdyck import cli\ncli.main(["tree", "--encode", "babbbab"])')
    assert "ffdyck.trees" in loaded
    unwanted = {
        "json",
        "ffdyck.counting",
        "ffdyck.grammar",
        "ffdyck.series",
        "ffdyck.codes",
        "ffdyck.selfcheck",
    }
    assert not unwanted & loaded


def test_every_public_name_resolves():
    for name in ffdyck.__all__:
        value = getattr(ffdyck, name)
        home = sys.modules[f"ffdyck.{ffdyck._HOME[name]}"]
        assert value is getattr(home, name)
    assert set(ffdyck.__all__) <= set(dir(ffdyck))
    assert ffdyck.__all__ == sorted(ffdyck.__all__)


def test_submodule_resolves_before_import():
    loaded = loaded_after(
        "import ffdyck\nassert ffdyck.counting.count_u(2, 3) == 153"
    )
    assert "ffdyck.counting" in loaded and "ffdyck.grammar" not in loaded


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ffdyck.no_such_name  # noqa: B018
    assert not hasattr(ffdyck, "dataclass")


def test_star_import_loads_every_exporting_module():
    loaded = loaded_after("from ffdyck import *")
    assert {f"ffdyck.{m}" for m in ffdyck._EXPORTS} <= loaded

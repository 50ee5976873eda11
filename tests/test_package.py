"""The package namespace: public names load their submodules on first use,
and a CLI child imports only the modules its subcommand runs."""

import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import platsurf
from platsurf import diagram_to_json, make_diagram

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
HEAVY = ("certificates", "surfaces", "surgery", "topology", "export")
ALL_THREES = [[3, 3], [3, 3, 3], [3, 3]]


def child(code: str) -> str:
    """Run code in a fresh interpreter that imports platsurf from src/."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


LOADED = (
    "import json, sys; "
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'platsurf')))"
)


@pytest.fixture
def diagram_file(tmp_path):
    p = tmp_path / "d.json"
    p.write_text(diagram_to_json(make_diagram(3, 3, ALL_THREES)))
    return str(p)


def test_cli_import_loads_only_the_cli_and_its_errors():
    loaded = json.loads(child("import platsurf.cli; " + LOADED))
    # render is bound eagerly in __init__ (see test_render_is_the_function)
    assert loaded == ["platsurf", "platsurf.cli", "platsurf.errors", "platsurf.render"]


def test_validate_loads_no_certificate_machinery(diagram_file):
    loaded = json.loads(child(
        "import contextlib, io; from platsurf import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['validate', {diagram_file!r}]) == 0\n" + LOADED
    ))
    assert "platsurf.diagram" in loaded
    assert not {f"platsurf.{m}" for m in HEAVY} & set(loaded)


def test_no_subcommand_loads_the_record_machinery(diagram_file):
    out = child(
        "import contextlib, io, sys; from platsurf import cli\n"
        f"F = {diagram_file!r}\n"
        "for argv in (['validate', F], ['paths', F], ['certify', F], ['info', F],\n"
        "             ['surgery', F, '--slopes', '3/1'], ['export', F, '--format', 'pd'],\n"
        "             ['render', F, '--out', F + '.svg'], ['random', '--n', '3', '--m', '3']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    assert out.split() == ["[]"]


def test_only_surgery_loads_the_tangle_fractions(diagram_file):
    out = child(
        "import contextlib, io, sys; from platsurf import cli\n"
        f"F = {diagram_file!r}\n"
        "def run(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "for argv in (['validate', F], ['paths', F], ['certify', F], ['info', F],\n"
        "             ['export', F, '--format', 'pd'], ['render', F, '--out', F + '.svg'],\n"
        "             ['random', '--n', '3', '--m', '3']):\n"
        "    run(argv)\n"
        "print('platsurf.tangles' in sys.modules)\n"
        "run(['surgery', F, '--slopes', '3/1'])\n"
        "print('platsurf.tangles' in sys.modules)"
    )
    assert out.split() == ["False", "True"]


def test_every_public_name_is_its_defining_object():
    for name in platsurf.__all__:
        module = platsurf._LAZY.get(name, "render")
        defined = getattr(importlib.import_module(f"platsurf.{module}"), name)
        assert getattr(platsurf, name) is defined, name


def test_star_import_and_dir_keep_the_public_surface():
    out = child(
        "import platsurf\n"
        "listed = set(dir(platsurf))\n"
        "namespace = {}\n"
        "exec('from platsurf import *', namespace)\n"
        "print(set(platsurf.__all__) <= listed, set(platsurf.__all__) <= set(namespace),\n"
        "      '__version__' in listed)"
    )
    assert out.split() == ["True", "True", "True"]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="module 'platsurf' has no attribute 'nope'"):
        getattr(platsurf, "nope")


def test_submodules_read_as_attributes():
    out = child("import platsurf; print(platsurf.topology.__name__, platsurf.paths.__name__)")
    assert out.split() == ["platsurf.topology", "platsurf.paths"]


@pytest.mark.parametrize("first", [
    "import platsurf.render",
    "from platsurf import cli; assert cli.main(['render', F, '--out', F + '.svg']) == 0",
])
def test_render_is_the_function(first, diagram_file):
    # importing the submodule binds the package attribute to the module,
    # unless the package bound the function before
    out = child(
        f"F = {diagram_file!r}\n{first}\nimport platsurf\n"
        "print(callable(platsurf.render), platsurf.render.__module__)"
    )
    assert out.split() == ["True", "platsurf.render"]


def test_readme_python_example_runs():
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)[1]
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(block, namespace)
    # each line whose comment starts with a value states what it evaluates to
    stated = re.findall(r"^(\S.*?)\s+# (True|False|\d+)\b", block, re.M)
    assert [value for _, value in stated] == ["True", "2", "1", "True", "True"]
    for expr, value in stated:
        assert repr(eval(expr, namespace)) == value, expr
    assert '"certified": true' in out.getvalue()

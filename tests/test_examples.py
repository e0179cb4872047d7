"""Every example walkthrough and ablation bench still imports.

Nothing else imports these files, so a re-export they use could
vanish from a package ``__init__`` without any other test noticing.
Each file is loaded under a private module name; ``main`` is not run
and no bench function is called.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("examples/*.py")) + sorted(
    ROOT.glob("benchmarks/bench_*.py")
)


def test_scripts_found():
    assert any(path.parent.name == "examples" for path in SCRIPTS)
    assert any(path.parent.name == "benchmarks" for path in SCRIPTS)


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=lambda path: f"{path.parent.name}/{path.name}"
)
def test_imports(path):
    name = f"_import_check_{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

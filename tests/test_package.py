import os
import subprocess
import sys
import types

import screenfit


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(screenfit.__all__)) == len(screenfit.__all__)
    for name in screenfit.__all__:
        assert not isinstance(getattr(screenfit, name), types.ModuleType), name


def test_all_lists_every_public_name_but_the_submodules():
    public = {
        name
        for name, value in vars(screenfit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(screenfit.__all__)


def test_import_does_not_load_scipy_stats():
    # in a fresh interpreter: other test modules import scipy.stats themselves
    src = os.path.dirname(os.path.dirname(screenfit.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = (
        "import sys, screenfit, screenfit.cli; "
        "print(' '.join(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""

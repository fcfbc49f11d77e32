"""The package republishes each module's public names, and only those."""

import os
import subprocess
import sys
from pathlib import Path

import gausskey
from gausskey import channels, engines, errors, rates, sim, symplectic, thresholds

MODULES = (channels, engines, errors, rates, sim, symplectic, thresholds)


def test_package_all_is_the_module_lists_concatenated():
    assert gausskey.__all__ == [name for mod in MODULES for name in mod.__all__]


def test_package_all_has_no_duplicates():
    assert len(set(gausskey.__all__)) == len(gausskey.__all__)


def test_every_public_name_resolves():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(gausskey, name) is getattr(mod, name), name


def test_beam_splitter_alias_is_gone():
    assert not hasattr(gausskey, "balanced_beam_splitter")
    assert not hasattr(symplectic, "balanced_beam_splitter")


def _fresh(probe: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(gausskey.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout.strip()


def test_closed_form_layer_leaves_numpy_unloaded():
    probe = (
        "import sys, gausskey as g\n"
        "g.curve_to_csv(g.sweep(0.2, 1.8, 9))\n"
        "g.threshold_eps('r_rev', 0.5)\n"
        "g.classify(0.4, 0.05)\n"
        "g.rate_report(g.make_canonical(0.5, nbar=0.1))\n"
        "g.entropy_g(2.0)\n"
        "print('numpy' in sys.modules)"
    )
    assert _fresh(probe) == "False"


def test_star_import_binds_every_public_name():
    probe = (
        "from gausskey import *\n"
        "import gausskey\n"
        "names = gausskey.__all__\n"
        "print(len(names), sum(n in globals() for n in names))"
    )
    assert _fresh(probe) == "61 61"


def test_unknown_name_raises_attribute_error():
    # Once before the numpy-backed modules load and once after.
    probe = (
        "import gausskey\n"
        "for _ in range(2):\n"
        "    try:\n"
        "        gausskey.no_such_name\n"
        "    except AttributeError as exc:\n"
        "        print(exc)\n"
        "print(len(gausskey.__all__))"
    )
    missing = "module 'gausskey' has no attribute 'no_such_name'"
    assert _fresh(probe).splitlines() == [missing, missing, "61"]

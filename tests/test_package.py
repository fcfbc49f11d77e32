"""The package republishes each module's public names, and only those."""

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

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

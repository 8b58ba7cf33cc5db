import types

import mgpert


def test_all_is_the_public_namespace():
    names = mgpert.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(mgpert, name) for name in names)
    public = {
        name for name, value in vars(mgpert).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public

import dataclasses
import pathlib
import re
import types

import mgpert
from mgpert.calibration import Quote
from mgpert.heatkernel import QuadratureConfig
from mgpert.mc import McConfig, TimeSeriesSpec

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_all_is_the_public_namespace():
    names = mgpert.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(mgpert, name) for name in names)
    public = {
        name for name, value in vars(mgpert).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public


def unused_exports(names, sources):
    """The names that no source line uses, other than the line defining them."""
    unused = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line)
                   for text in sources for line in text.splitlines()):
            unused.append(name)
    return unused


def program_sources():
    """Source text of the package's modules, less __init__.py, and of perfbench's."""
    files = [p for p in (ROOT / "src" / "mgpert").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "perfbench").glob("*.py")
    return [p.read_text(encoding="utf-8") for p in files]


def test_every_export_is_used_by_the_program():
    assert unused_exports(mgpert.__all__, program_sources()) == []


def test_unused_export_is_found():
    # a second entry point for C1 that only its own def names
    extra = "def perturb_correction(opt, pert, deriv, r):\n    return correction_kernel()\n"
    sources = program_sources() + [extra]
    assert unused_exports([*mgpert.__all__, "perturb_correction"], sources) == [
        "perturb_correction"
    ]


def unset_fields(classes, sources):
    """Each class's dataclass fields that no source passes as a keyword `name=`."""
    return [
        f"{cls.__name__}.{f.name}" for cls in classes for f in dataclasses.fields(cls)
        if not any(re.search(rf"\b{f.name}=(?!=)", text) for text in sources)
    ]


SETTINGS = (McConfig, TimeSeriesSpec, QuadratureConfig, Quote)


def test_every_setting_is_set_by_the_program():
    # a field that only tests set is a constant
    assert unset_fields(SETTINGS, program_sources()) == []


def test_unset_setting_is_found():
    # the panel's maturity grid as a field again
    regrown = dataclasses.make_dataclass("TimeSeriesSpec", [("maturities", tuple)],
                                         bases=(TimeSeriesSpec,), frozen=True)
    assert unset_fields([*SETTINGS, regrown], program_sources()) == ["TimeSeriesSpec.maturities"]

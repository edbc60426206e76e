import importlib
import inspect
import pickle
import pkgutil

import pytest

import flagiso

# One instance of every exception class the library defines, built as the
# library raises it.
_SAMPLES = {
    "FlagisoError": ("flagiso.errors", ("failed",)),
    "ValidationError": ("flagiso.errors", ("bad input",)),
    "ResourceLimitError": ("flagiso.errors", ("too large",)),
    "ThresholdError": ("flagiso.decide", ("below threshold",)),
    "DescriptorError": ("flagiso.descriptors", (["a", "b"],)),
    "TruncationWidthError": ("flagiso.descriptors", (3, 5)),
    "OrderParseError": ("flagiso.orders", ("bad", 3)),
    "WitnessError": ("flagiso.witness", ("no witness", {"step": 1})),
}


def _exception_classes():
    """Name of every exception class defined in a flagiso module."""
    names = set()
    for info in pkgutil.iter_modules(flagiso.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"flagiso.{info.name}")
        for name, value in vars(module).items():
            if inspect.isclass(value) and issubclass(value, BaseException):
                if value.__module__ == module.__name__:
                    names.add(name)
    return names


def test_every_exception_class_has_a_sample():
    assert _exception_classes() == set(_SAMPLES)


@pytest.mark.parametrize("name", sorted(_SAMPLES))
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_exception_survives_pickling(name, protocol):
    module, args = _SAMPLES[name]
    error = getattr(importlib.import_module(module), name)(*args)
    copy = pickle.loads(pickle.dumps(error, protocol))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)

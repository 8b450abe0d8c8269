"""The package convention: each package ``__init__`` names its public names
once, in one ``{submodule: names}`` table, and a submodule is imported the
first time one of its names is read (PEP 562 module ``__getattr__``)."""

import sys


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for ``package`` from ``table``,
    whose keys are relative module names (``".pipeline"``; ``"."`` lists
    submodules exported as modules).  A loaded name is cached in the
    package, so ``__getattr__`` runs once per name."""
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # ``__import__``, not ``importlib.import_module``: only the former
        # is reported by ``-X importtime``, which the serve budget reads.
        full = f"{package}.{name}" if module == "." else package + module
        __import__(full)
        value = sys.modules[full] if module == "." else getattr(sys.modules[full], name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | owner.keys())

    return [name for names in table.values() for name in names], __getattr__, __dir__

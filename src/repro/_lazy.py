"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports its submodules' public names
eagerly makes every ``import repro.x`` pay for all of ``repro.x``.  With
:func:`lazy_exports` the package only records *where* each name lives;
the defining submodule is imported the first time the name is read.
"""

from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(namespace: Dict[str, Any],
                 exports: Mapping[str, Iterable[str]],
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a lazily exporting package.

    ``namespace`` is the package's ``globals()``; ``exports`` maps a
    relative submodule (``".resolve"``) to the names it defines.  Reading
    an exported name imports its submodule and binds the value in the
    package, so later reads are plain attribute hits.  Reading any other
    name imports the submodule of that name, if there is one
    (``repro.sql.parser``), as an eager ``__init__`` would have.

    A name spelled like its own submodule (``optimizer.saturate``) is
    bound at once: once that submodule is imported, the import system
    sets the package attribute to the module object, which would then
    shadow the function for good.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in exports.items()
             for name in names}
    for name, module in where.items():
        if module == "." + name:
            namespace[name] = getattr(import_module(module, package), name)

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is not None:
            value = getattr(import_module(module, package), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            try:
                return import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where)
                      | set(namespace.get("__all__", ())))

    return __getattr__, __dir__

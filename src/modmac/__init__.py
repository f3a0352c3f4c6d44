"""Exact computer algebra for the modular symmetric-function ring.

The ring is generated by power sums of degree prime to a modulus m, carries
a deformed Hall pairing, and supports a self-adjoint raising operator (the
zero mode of a vertex operator) whose monic eigenvectors deform the modular
Hall-Littlewood functions and specialize to Schur Q-functions at m = 2,
q = 0.  All arithmetic is exact: rationals, cyclotomic numbers, and
canonical rational functions of q.

The package republishes each module's `__all__`; that list is the one
statement of a module's public names.  Importing the package loads no
module: the first read of a public name (or of `__all__`, as `from modmac
import *` does) imports all eight and binds the union of their lists.
"""

__version__ = "0.1.0"

_MODULES = ("errors", "macdonald", "newton", "partitions", "scalars", "selfcheck", "symfunc",
            "vertex")


def __getattr__(name: str):
    # PEP 562: called only for a name the package does not hold yet.  A
    # private name is in no `__all__`, so probing one loads nothing
    names = globals()
    if "__all__" not in names and (name == "__all__" or not name.startswith("_")):
        from importlib import import_module

        modules = [import_module(f"{__name__}.{short}") for short in _MODULES]
        names.update((n, getattr(mod, n)) for mod in modules for n in mod.__all__)
        names["__all__"] = [n for mod in modules for n in mod.__all__]
    if name in names:
        return names[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

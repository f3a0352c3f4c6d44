"""Child runner: one modmac CLI command in a fresh interpreter.

Usage: python3 child.py ROOT META MODE REQUEST [CLI ARGS...]

ROOT is the checkout whose ``src/modmac`` is imported; META is a file the
runner writes at exit (JSON: the monotonic time at which ``modmac.cli`` was
imported and, when traced, spans, cache sizes or scalar call counts); MODE
is one of

  ready    import ``modmac.cli`` and exit (a set-up sample)
  plain    run the command untraced
  spans    wrap each layer's functions at every binding site and record one
           span per call, kept in memory and written out at exit
  profile  run the command under cProfile and keep only the scalar counts

REQUEST is the request id of the command, written to META: all the spans
there belong to this one command.  The command's stdout is left untouched,
so the parent can check it byte for byte.
"""

import json
import os
import sys
import time

# Scalar helpers called from inside Cyc/CycRat arithmetic on every operation;
# their cost is taken from the cProfile pass, not from spans.
SCALAR_INTERNALS = {"cyclotomic_polynomial", "euler_phi", "zeta"}

# Private names that carry a layer metric of their own.
EXTRA = {
    "symfunc": ("_reduced_basis_solver",),
    "cli": ("_emit", "_matrix_csv"),
}

# Serialization methods, wrapped on their classes.
METHODS = {
    "symfunc": (("PExpr", "to_json"), ("QExpr", "to_json")),
    "vertex": (("X0Matrix", "to_json"), ("X0Matrix", "to_csv")),
    "macdonald": (("ModularMacdonald", "to_json"),),
}


def package_caches(modules) -> dict:
    """Every lru_cache defined in the package, keyed by layer.name."""
    out = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                out[f"{short}.{name}"] = obj
    return out


class Tracer:
    """Spans as [name, start, end, parent index], appended in call order."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn, rename=None):
        spans, stack, clock = self.spans, self.stack, time.monotonic

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if rename is not None:
                rec[0] = rename(result, name)
            return result

        return wrapper


def _selfcheck_family(result, name):
    if isinstance(result, dict) and "identity" in result:
        return "selfcheck." + result["identity"]
    return name


def install_spans(tracer: Tracer, modules) -> None:
    """Replace each layer function by a span wrapper wherever it is bound."""
    import inspect

    from run import LAYERS

    originals = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        if short not in LAYERS:
            continue
        names = list(getattr(mod, "__all__", ())) + list(EXTRA.get(short, ()))
        if short == "selfcheck":
            names += [n for n in vars(mod) if n.startswith("_check_")]
        for name in names:
            obj = getattr(mod, name, None)
            if obj is None or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if short == "scalars" and name in SCALAR_INTERNALS:
                continue
            if inspect.isgeneratorfunction(getattr(obj, "__wrapped__", obj)):
                continue
            rename = _selfcheck_family if name.startswith("_check_") else None
            originals[id(obj)] = tracer.wrap(f"{short}.{name}", obj, rename)
        for cls_name, meth in METHODS.get(short, ()):
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))
    # rebind at every site: selfcheck, macdonald and cli import names directly
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            wrapper = originals.get(id(obj))
            if wrapper is not None:
                setattr(mod, name, wrapper)


def scalar_profile(profiler) -> dict:
    """Exact call counts of the scalar kernels and time shares, from cProfile."""
    import pstats

    from modmac import scalars

    kernels = {
        "cycrat_mul": scalars.CycRat.__mul__,
        "cycrat_add": scalars.CycRat.__add__,
        "cyc_mul": scalars.Cyc.__mul__,
        "pgcd": scalars._pgcd,
    }
    keys = {
        (f.__code__.co_filename, f.__code__.co_firstlineno, f.__code__.co_name): k
        for k, f in kernels.items()
    }
    calls = dict.fromkeys(kernels, 0)
    pgcd_cum = fraction_self = total_self = 0.0
    for key, (_cc, nc, tt, ct, _callers) in pstats.Stats(profiler).stats.items():
        total_self += tt
        if os.path.basename(key[0]) == "fractions.py":
            fraction_self += tt
        kernel = keys.get(key)
        if kernel is not None:
            calls[kernel] = nc
            if kernel == "pgcd":
                pgcd_cum = ct
    return {"calls": calls, "pgcd_cum": pgcd_cum, "fraction_self": fraction_self,
            "total_self": total_self}


def main() -> int:
    root, meta_path, mode, request = sys.argv[1:5]
    cli_args = sys.argv[5:]
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import modmac.cli

    ready = time.monotonic()
    meta = {"ready": ready, "request": request}
    if os.path.dirname(os.path.abspath(modmac.cli.__file__)) != os.path.join(src, "modmac"):
        sys.stderr.write(f"child: imported modmac from {modmac.cli.__file__}, not from {src}\n")
        return 3
    if mode == "ready":
        _write(meta_path, meta)
        return 0

    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "modmac" or n.startswith("modmac.")) and m is not None]
    tracer = profiler = None
    run = modmac.cli.main
    if mode == "spans":
        tracer = Tracer()
        caches = package_caches(modules)
        install_spans(tracer, modules)
        run = tracer.wrap("cli.main", run)
    elif mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
    elif mode != "plain":
        sys.stderr.write(f"child: unknown mode {mode!r}\n")
        return 3

    # click ends the command with SystemExit, which passes through unchanged
    if profiler is not None:
        profiler.enable()
    try:
        run(args=cli_args, prog_name="modmac")
    finally:
        if profiler is not None:
            profiler.disable()
        sys.stdout.flush()
        if tracer is not None:
            meta["spans"] = tracer.spans
            meta["caches"] = {name: list(c.cache_info()) for name, c in caches.items()}
            from modmac import scalars

            meta["inv_cache"] = len(scalars._INV_CACHE)
        if profiler is not None:
            meta["profile"] = scalar_profile(profiler)
        _write(meta_path, meta)
    return 0


def _write(path: str, meta: dict) -> None:
    with open(path, "w") as fh:
        json.dump(meta, fh)


if __name__ == "__main__":
    sys.exit(main())

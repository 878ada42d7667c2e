"""Checked symbolic derivations with an independent numeric cross-check.

Each public name loads its submodule when it is first used, so that
`import derivkit` loads no submodule.
"""

import importlib

__version__ = "0.1.0"


def _lazy(globs, imports):
    """A module `__getattr__` (PEP 562) and a `load(*names)` for the names
    of `imports`, which maps a module, relative as in a `from` import, to
    the names it provides.

    `load` binds the names it is given, or all of them, into `globs`. A
    name that is already set, say a stand-in a test or a tracer put
    there, is left as it is.
    """
    source = {n: m for m, names in imports.items() for n in names}

    def load(*names):
        for n in names or source:
            if n not in globs:
                module = importlib.import_module(source[n], globs["__package__"])
                globs[n] = getattr(module, n)

    def __getattr__(name):
        if name not in source:
            raise AttributeError(
                f"module {globs['__name__']!r} has no attribute {name!r}")
        load(name)
        return globs[name]

    return __getattr__, load


__getattr__ = _lazy(globals(), {
    ".errors": ("DerivkitError",),
    ".expr": ("eval_expr",),
    ".formula": ("Theory",),
    ".kernel": ("CheckResult", "check_theory"),
    ".numcheck": ("SamplePlan",),
    ".parser": ("parse_theories", "parse_theory", "print_theory"),
    ".theories": ("build_pool", "registry"),
})[0]

__all__ = [
    "DerivkitError", "eval_expr", "Theory", "CheckResult",
    "check_theory", "SamplePlan", "parse_theories",
    "parse_theory", "print_theory", "build_pool", "registry", "__version__",
]

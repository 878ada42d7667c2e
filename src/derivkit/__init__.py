"""Checked symbolic derivations with an independent numeric cross-check."""

from .errors import DerivkitError
from .expr import eval_expr
from .formula import Theory
from .kernel import CheckResult, check_theory
from .numcheck import SamplePlan
from .parser import parse_theories, parse_theory, print_theory
from .theories import build_pool, registry

__version__ = "0.1.0"

__all__ = [
    "DerivkitError", "eval_expr", "Theory", "CheckResult",
    "check_theory", "SamplePlan", "parse_theories",
    "parse_theory", "print_theory", "build_pool", "registry", "__version__",
]

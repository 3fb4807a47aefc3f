"""Hot-path allocation rules.

Functions registered in :data:`repro.analysis.hotpath.HOT_PATHS` (or marked
``@hot_path``) run once per serving tick.  These rules keep them honest
between benchmark runs: a fresh ``np.empty`` (or, in the ``strict`` tier,
an ``out=``-less ufunc) inside a registered function is flagged on every
lint run, not on the next time someone re-reads a flamegraph.

Nested ``def``/``lambda`` bodies are excluded — a closure defined inside a
hot function is its own (unregistered) function.
"""

from __future__ import annotations

import ast

from ..lint import FileContext, LintFinding, dotted_name

__all__ = ["HotPathAllocRule", "HotPathUfuncOutRule"]

#: numpy callables that always allocate a fresh array.
_ALLOCATING_CONSTRUCTORS = {
    "empty", "zeros", "ones", "full",
    "empty_like", "zeros_like", "ones_like", "full_like",
    "array", "copy", "concatenate", "stack",
    "vstack", "hstack", "dstack", "column_stack",
    "tile", "repeat", "where", "pad",
    "arange", "linspace", "logspace", "eye", "identity", "meshgrid",
}

#: ndarray methods that allocate.
_ALLOCATING_METHODS = {"copy", "astype", "flatten", "tolist"}

#: numpy callables that accept ``out=`` — in a ``strict`` hot path each call
#: must use it (the zero-allocation contract).
_OUT_CAPABLE = {
    "add", "subtract", "multiply", "divide", "true_divide", "floor_divide",
    "matmul", "power", "mod", "remainder",
    "exp", "log", "log2", "log10", "sqrt", "square", "reciprocal",
    "sin", "cos", "tan", "tanh", "sinh", "cosh",
    "abs", "absolute", "fabs", "negative", "positive", "sign", "rint",
    "floor", "ceil", "trunc", "clip",
    "maximum", "minimum", "fmax", "fmin",
    "greater", "greater_equal", "less", "less_equal", "equal", "not_equal",
    "logical_and", "logical_or", "logical_xor", "logical_not",
    "isfinite", "isnan", "isinf",
    "sum", "prod", "max", "min", "amax", "amin", "mean",
}


def _numpy_member(name: str | None) -> str | None:
    if name is None:
        return None
    parts = name.split(".")
    if len(parts) == 2 and parts[0] in ("np", "numpy"):
        return parts[1]
    return None


def _hot_body(function: ast.AST):
    """Nodes lexically inside ``function``, excluding nested function bodies."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class HotPathAllocRule:
    name = "hot-alloc"
    description = (
        "registered hot paths may not call allocating numpy constructors "
        "(np.empty/zeros/concatenate/...) or .copy()/.astype(); preallocate "
        "in __init__ and write into it"
    )

    def check(self, context: FileContext) -> list[LintFinding]:
        findings = []
        for function, qualname, _tier in context.hot_functions():
            for node in _hot_body(function):
                if not isinstance(node, ast.Call):
                    continue
                member = _numpy_member(dotted_name(node.func))
                if member in _ALLOCATING_CONSTRUCTORS:
                    findings.append(
                        context.finding(
                            node, self.name,
                            f"np.{member} allocates inside hot path {qualname}; "
                            "preallocate the buffer and fill it in place",
                        )
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ALLOCATING_METHODS
                    and not isinstance(node.func.value, ast.Constant)
                ):
                    findings.append(
                        context.finding(
                            node, self.name,
                            f".{node.func.attr}() allocates inside hot path "
                            f"{qualname}; reuse a preallocated buffer",
                        )
                    )
        return findings


class HotPathUfuncOutRule:
    name = "hot-ufunc-out"
    description = (
        "strict (zero-allocation) hot paths must pass out= to every "
        "out-capable numpy call so no tick allocates an intermediate"
    )

    def check(self, context: FileContext) -> list[LintFinding]:
        findings = []
        for function, qualname, tier in context.hot_functions():
            if tier != "strict":
                continue
            for node in _hot_body(function):
                if not isinstance(node, ast.Call):
                    continue
                member = _numpy_member(dotted_name(node.func))
                if member not in _OUT_CAPABLE:
                    continue
                if any(keyword.arg == "out" for keyword in node.keywords):
                    continue
                findings.append(
                    context.finding(
                        node, self.name,
                        f"np.{member} without out= allocates a fresh array every "
                        f"tick in zero-allocation hot path {qualname}",
                    )
                )
        return findings

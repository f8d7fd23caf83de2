"""Exact-arithmetic engine for Euler characteristics of string-link
spaces: generating functions over sparse truncated multivariate series,
cycle index sums for the associated graph complexes and modular
envelopes, and a brute-force hairy-graph oracle cross-checking them.

``import linkchi`` loads no submodule.  Each public name below, and each
submodule (``linkchi.graphs``, ...), is imported on first use (PEP 562),
so a run loads only the modules it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it, in the order of __all__
_EXPORTS = {
    "EnumerationBudget": "graphs",
    "EulerTable": "genfun",
    "LinkConfig": "genfun",
    "OutOfBoundsError": "series",
    "QQ": "rationals",
    "SeriesError": "series",
    "TruncatedSeries": "series",
    "TruncationSpec": "series",
    "VariableSet": "series",
    "bernoulli": "rationals",
    "binomial": "rationals",
    "e_poly": "special",
    "enumerate_classes": "graphs",
    "euler_char_oracle": "graphs",
    "euler_table": "genfun",
    "f_homology": "genfun",
    "f_homotopy_direct": "genfun",
    "f_homotopy_graded": "genfun",
    "f_poly": "special",
    "feynman_regrade": "cycleindex",
    "gamma_series": "special",
    "genus0_closed": "genfun",
    "genus0_dims": "genfun",
    "genus1_closed": "genfun",
    "genus1_dims": "genfun",
    "mobius": "rationals",
    "mod_envelope_supercharacter": "cycleindex",
    "plethystic_exp": "special",
    "plethystic_log": "special",
    "s_poly": "special",
    "specialize_colors": "cycleindex",
    "totient": "rationals",
    "z_colors": "cycleindex",
    "z_graph_supercharacter": "cycleindex",
    "z_hedgehog_homology": "cycleindex",
    "z_lie_cyclic": "cycleindex",
    "z_tree_homology": "cycleindex",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if not name.startswith("_"):  # a submodule; importing binds it here
        try:
            return import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))

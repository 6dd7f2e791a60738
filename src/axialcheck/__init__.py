"""Exact-arithmetic engine for dihedral axial decomposition algebras.

The submodules are the API, as in ``from axialcheck import catalog``.
"""


def __getattr__(name):
    # perfbench calls axialcheck.list_entries(); the catalog loads on first use
    if name == "list_entries":
        from .catalog import list_entries

        return list_entries
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

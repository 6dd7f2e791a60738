"""Exact-arithmetic engine for dihedral axial decomposition algebras.

The submodules are the API, as in ``from axialcheck import catalog``.
"""

# perfbench's launcher and trace worker call axialcheck.list_entries()
from .catalog import list_entries

"""Memristor-crossbar fuzzy-relation learning and inference simulator.

The package's public API is the ``__all__`` of its modules ``crossbar``,
``device``, ``fuzzy``, ``harness``, ``relation`` and ``system``, each
re-exported here; a module's other names are importable by module path.
"""

from . import crossbar, device, fuzzy, harness, relation, system
from .crossbar import *
from .device import *
from .fuzzy import *
from .harness import *
from .relation import *
from .system import *

__version__ = "0.1.0"

__all__ = (crossbar.__all__ + device.__all__ + fuzzy.__all__ + harness.__all__
           + relation.__all__ + system.__all__)

"""Energy-distance clustering (k-groups) with k-means as the alpha=2 case.

The public surface mirrors the layers of the library: distance/statistic
primitives (`energy`), partition bookkeeping (`partition`), the relocation
solvers (`solver`), validity indices (`indices`), synthetic data
(`datagen`), and the benchmark harness (`harness`).  Each module's
`__all__` is re-exported here, and this package's `__all__` is their union.
"""

from . import datagen, energy, errors, harness, indices, partition, solver
from .datagen import *
from .energy import *
from .errors import *
from .harness import *
from .indices import *
from .partition import *
from .solver import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, energy, partition, solver, indices, datagen, harness)
    for name in module.__all__
]

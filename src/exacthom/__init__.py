"""Exact integer homological algebra.

Smith and Hermite normal forms over Z, derived functors of tensor /
symmetric / exterior powers via Koszul-type complexes, and finite group
homology with Fox calculus and the Magnus relation module. All arithmetic
is exact (Python integers); nothing here ever touches a float.

Each module's __all__ is the one list of its public names; the package
exports all of them.
"""

from .abelian import *
from .errors import *
from .grouphom import *
from .koszul import *
from .linalg import *
from .powers import *
from .presets import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += abelian.__all__
__all__ += errors.__all__
__all__ += grouphom.__all__
__all__ += koszul.__all__
__all__ += linalg.__all__
__all__ += powers.__all__
__all__ += presets.__all__

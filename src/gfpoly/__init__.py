"""Generalized Fibonacci polynomial sequences over Z[x].

Exact integer-coefficient polynomial arithmetic, the family recurrences,
closed-form gcd theorems with a brute-force oracle, and a catalog of
checkable identities.  Each module's __all__ names its public API, and the
package re-exports exactly those names.
"""

from . import families, gcd_theorems, identities, polyring
from .polyring import *
from .families import *
from .gcd_theorems import *
from .identities import *

__version__ = "0.1.0"

__all__ = polyring.__all__ + families.__all__ + gcd_theorems.__all__ + identities.__all__ + ["__version__"]

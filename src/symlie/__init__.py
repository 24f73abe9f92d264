"""symlie: exact symmetric-function computations for Lie-type families.

Everything is exact: partitions and divisor arithmetic, symmetric-group
characters and Schur expansions, plethysm of truncated series, the
representation families generated by divisor weights, and a catalog of
exactly-checkable identities with Schur-positivity scans.  Functions are
stored in the power-sum basis with integer numerators over one denominator.
Schur expansions run over the integers without evaluating a character, all
in ``symfunc``: the product scans by a rim-hook DP, everything else by
``to_schur``, both by adding border strips to shapes keyed by beta sets.

The package namespace holds every name in each module's ``__all__``.
"""

from .partitions import *
from .symfunc import *
from .plethysm import *
from .families import *
from .verify import *

__version__ = "0.1.0"

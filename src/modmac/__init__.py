"""Exact computer algebra for the modular symmetric-function ring.

The ring is generated by power sums of degree prime to a modulus m, carries
a deformed Hall pairing, and supports a self-adjoint raising operator (the
zero mode of a vertex operator) whose monic eigenvectors deform the modular
Hall-Littlewood functions and specialize to Schur Q-functions at m = 2,
q = 0.  All arithmetic is exact: rationals, cyclotomic numbers, and
canonical rational functions of q.

The package republishes each module's `__all__`; that list is the one
statement of a module's public names.
"""

from .errors import *
from .macdonald import *
from .newton import *
from .partitions import *
from .scalars import *
from .selfcheck import *
from .symfunc import *
from .vertex import *

__version__ = "0.1.0"

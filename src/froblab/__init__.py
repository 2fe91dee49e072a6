"""froblab: exact level-p Frobenius and Sylvester numbers.

Two independent routes to every quantity — closed forms where the
Fibonacci/Lucas triple families admit them, and an exact Apery-set
oracle everywhere — plus the machinery to compare the routes against
each other.

The package re-exports each module's ``__all__``.  The lists are bound
under private names: ``froblab.denumerant`` is the function of that name,
not the module.
"""

from .apery import *
from .apery import __all__ as _apery
from .closed_forms import *
from .closed_forms import __all__ as _closed_forms
from .denumerant import *
from .denumerant import __all__ as _denumerant
from .sequences import *
from .sequences import __all__ as _sequences
from .tables import *
from .tables import __all__ as _tables

__version__ = "0.1.0"

__all__ = [*_apery, *_closed_forms, *_denumerant, *_sequences, *_tables]

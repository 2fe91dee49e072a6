"""froblab: exact level-p Frobenius and Sylvester numbers.

Two independent routes to every quantity — closed forms where the
Fibonacci/Lucas triple families admit them (``closed_forms``), and an exact
Apery-set walk everywhere (``apery``) — plus the dense count table
(``denumerant``) that the tests hold both against.  The three import none of
each other: they share only the tuple types of ``generators`` and the terms of
``sequences``.  ``route`` is the one map from a quantity to its two routes.

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
from .generators import *
from .generators import __all__ as _generators
from .route import *
from .route import __all__ as _route
from .sequences import *
from .sequences import __all__ as _sequences
from .tables import *
from .tables import __all__ as _tables

__version__ = "0.1.0"

__all__ = [*_apery, *_closed_forms, *_denumerant, *_generators, *_route, *_sequences, *_tables]

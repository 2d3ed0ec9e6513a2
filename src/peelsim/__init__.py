"""Peeling decoder for product-code erasure patterns.

Erasure patterns are bipartite graphs (rows vs columns, edges = erased
cells).  The package samples them, peels them round by round, certifies
failures with levelled certificates, predicts behavior with closed forms, and
sweeps the whole story under a reproducible Monte Carlo harness.

Each public name is listed once, in its module's ``__all__``; the package
re-exports them all.  ``peelsim.decode`` is the function, not the module.
"""

from .decode import *
from .decode import __all__ as _decode
from .experiment import *
from .experiment import __all__ as _experiment
from .graph import *
from .graph import __all__ as _graph
from .theory import *
from .theory import __all__ as _theory
from .witness import *
from .witness import __all__ as _witness

__version__ = "0.1.0"

__all__ = sorted(_decode + _experiment + _graph + _theory + _witness)

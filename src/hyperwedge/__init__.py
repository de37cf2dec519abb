"""Wave-front tracking for steady supersonic flow past slender wedges.

Layered as: characteristic fields (:mod:`~hyperwedge.euler`), elementary
wave curves (:mod:`~hyperwedge.curves`), interior and boundary Riemann
solvers (:mod:`~hyperwedge.riemann`), the front-tracking engine
(:mod:`~hyperwedge.tracking`), interaction/stability functionals
(:mod:`~hyperwedge.functionals`), and experiment drivers plus a CLI
(:mod:`~hyperwedge.experiments`, :mod:`~hyperwedge.cli`).
"""

__version__ = "0.1.0"

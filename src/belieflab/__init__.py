"""Numerical laboratory for censored coarse-evidence belief dynamics.

Signals are classified into direction and strength, weak evidence is
censored, the survivors drive a bounded mental-state chain, and simple
posterior rules map chain states to decisions. The package computes the
induced welfare landscape in closed form and checks every piece against a
seeded Monte Carlo oracle.

The package exports each pipeline module's ``__all__``, in pipeline order;
every public name is declared once, in the module that defines it.
"""

from . import beliefs, chain, oracle, scenarios, signals, welfare
from .signals import *
from .scenarios import *
from .chain import *
from .beliefs import *
from .welfare import *
from .oracle import *

__all__ = [
    *signals.__all__,
    *scenarios.__all__,
    *chain.__all__,
    *beliefs.__all__,
    *welfare.__all__,
    *oracle.__all__,
]

__version__ = "0.1.0"

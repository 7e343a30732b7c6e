"""Training-free removal of domain bias from frozen vision-language embeddings.

The toolkit works on precomputed feature matrices only.  Image rows are
recentered on their nearest unlabeled cluster mean and renormalized;
class text rows are shifted by the average cluster-to-center transition
so both sides land in a domain-neutral frame.  Everything runs in three
regimes over the same statistics: fit once and apply, calibrate the test
set on itself, or adapt batch by batch as data streams in.
"""

from . import calib, clustering, core, diagnostics, engine, errors, io, synth
from .calib import *
from .clustering import *
from .core import *
from .diagnostics import *
from .engine import *
from .errors import *
from .io import *
from .synth import *

__version__ = "0.1.0"

# each public name is declared once, in its module's __all__
__all__ = [
    name
    for module in (calib, clustering, core, diagnostics, engine, errors, io, synth)
    for name in module.__all__
]

"""Polar-code minimum-weight analysis: counting, enumeration, FER estimates.

The package's names are exactly the names in its library modules' __all__.
"""

__version__ = "0.1.0"

from polarmhw.bitops import *
from polarmhw.bound import *
from polarmhw.channel import *
from polarmhw.construction import *
from polarmhw.listdec import *
from polarmhw.mhw import *
from polarmhw.sctree import *

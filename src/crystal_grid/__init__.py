"""Crystal operators on irreducible components of grid representation
varieties, with an exact sampling oracle and an exact ambient model
for separating lowering words."""

__version__ = "0.1.0"

from .g22 import Component, ZERO_COMPONENT  # noqa: F401

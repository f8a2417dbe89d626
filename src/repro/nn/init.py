"""Weight initialisers (defined in :mod:`repro.autograd.init`).

The layers of :mod:`repro.nn` initialise through this module; the
functions live in :mod:`repro.autograd.init` so that code drawing raw
weight arrays does not import the module tree.
"""

from repro.autograd.init import (
    kaiming_normal,
    kaiming_uniform,
    ones,
    xavier_normal,
    zeros,
)

__all__ = ["kaiming_normal", "kaiming_uniform", "xavier_normal", "zeros", "ones"]

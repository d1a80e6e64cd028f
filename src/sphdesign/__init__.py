"""Spherical t-designs: construction, verification, and the supporting
numerical machinery (zonal kernels, equal-area partitions, sphere quadrature,
normalized gradient flow, and sampling inequalities).

The package imports no submodule, so the CLI can configure thread limits
before any numerical library is loaded.  Import submodules by name, e.g.
``from sphdesign import design``.
"""

__version__ = "0.1.0"

"""Desk-scale simulator for an EPR-assisted one-sided-error proof verifier.

Names are imported from their modules, e.g. ``from eprverify.protocol import
ProtocolRun``; the package root exports only ``__version__``.
"""

__version__ = "0.1.0"

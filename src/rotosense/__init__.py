"""Rotation sensing with second-order anti-coherent polarization states.

Names are imported from the submodules (``rotosense.measurement`` and so
on); the package root re-exports none.
"""

__version__ = "0.1.0"

"""Segmentation overlap metrics, their differentiable surrogate losses,
approximation-bound verification, and a desk-scale training harness.

The library's surface is its modules, each imported by name: `masks`
(binary masks and probability maps), `metrics` (the metric table and
`evaluate`), `losses` (the loss table and its value and gradient entry
points), `bounds` (exhaustive bound scans), `stats` (bootstrap ranking),
`toytrain` (the synthetic loss comparison), `fileio` (mask, report and
config files), `errors` and `cli`.  Importing the package alone loads
none of them, so `cli` can settle numpy's threading before numpy loads.
"""

__version__ = "0.1.0"

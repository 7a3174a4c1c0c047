"""Exact computation and verification toolkit for upper domination and
upper paired domination on small simple graphs. Names are imported from
their modules, such as ``pairdom.domination`` or ``pairdom.harness``."""

__version__ = "0.1.0"

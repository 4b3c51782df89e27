"""Exact egg-beater periodic-orbit algebra and Z_p-equivariant persistence.

Every name lives in its own module (`egb.eggbeater`, `egb.persistence`, ...)
and is imported from there; importing `egb` itself loads none of them.
"""

__version__ = "0.1.0"

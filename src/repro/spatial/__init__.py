"""Spatial primitives: planar geometry and the PMR quadtree edge index."""

from repro.utils import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.spatial.geometry": ("Point", "Rect", "Segment"),
        "repro.spatial.pmr_quadtree": ("PMRQuadtree",),
    },
)

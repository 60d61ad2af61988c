"""Object-box guided local feature matching for urban day-night image pairs."""

from .geom import (
    DetBox,
    Homography,
    LineSegment,
    QuadBox,
    dlt_homography,
    quad_iou,
)
from .guided import ImageInputs, Match, MatchSet, match_pair
from .objmatch import Feature, ObjectGroup, greedy_match
from .rectify import ColumnInterval, Rectifier
from .vanishing import VanishingPoint, VpParams, classify, estimate_vps

__all__ = [
    "ColumnInterval",
    "DetBox",
    "Feature",
    "Homography",
    "ImageInputs",
    "LineSegment",
    "Match",
    "MatchSet",
    "ObjectGroup",
    "QuadBox",
    "Rectifier",
    "VanishingPoint",
    "VpParams",
    "classify",
    "dlt_homography",
    "estimate_vps",
    "greedy_match",
    "match_pair",
    "quad_iou",
]

__version__ = "0.1.0"

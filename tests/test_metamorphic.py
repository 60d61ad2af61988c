"""Metamorphic relations of the pipeline: a nuisance change of the input
that must leave every match unchanged."""

import dataclasses

import numpy as np
import pytest

from objguide import synth
from objguide.guided import match_pair

SCENES = [("two-facade", seed) for seed in range(5)] + [("city-block", 0)]


def _shuffled_boxes(img, rng):
    """img with its boxes and rectified-frame boxes in a random order."""
    boxes = [img.boxes[k] for k in rng.permutation(len(img.boxes))]
    rect = [img.rect_boxes[k] for k in rng.permutation(len(img.rect_boxes))]
    return dataclasses.replace(img, boxes=boxes, rect_boxes=rect)


def _matches(img1, img2, mode):
    ms, _ = match_pair(img1, img2, mode=mode)
    return [(m.i, m.j, m.sim, m.group_id) for m in ms.matches]


@pytest.mark.parametrize("mode", ["O", "(O+R)A"])
@pytest.mark.parametrize("name,seed", SCENES)
def test_box_order_does_not_change_matches(name, seed, mode):
    scene = synth.generate(synth.preset(name, seed))
    rng = np.random.default_rng([seed, 7])
    shuffled = _shuffled_boxes(scene.img_a, rng), _shuffled_boxes(scene.img_b, rng)
    want = _matches(scene.img_a, scene.img_b, mode)
    assert want
    assert _matches(*shuffled, mode) == want

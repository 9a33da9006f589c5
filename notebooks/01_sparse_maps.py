"""
Sparse slide maps and slide-level augmentation
==============================================

A slide arrives as a bag of (pixel position, tile embedding) pairs. This
walk-through places a bag on the downsampled integer lattice, then shows
the geometric properties the rest of the pipeline relies on: canonical
ordering, permutation/translation invariance, and invertible rigid moves.
"""

import numpy as np

from slidessl import (
    SlideAugParams,
    augment_sparse_map,
    build_sparse_map,
    sample_slide_aug,
)

rng = np.random.default_rng(7)

### Build a map from a bag of tiles ##########################################
# A bag is two aligned arrays: the top-left pixel corners of 224x224 tiles
# and one feature row per tile. The lattice site is simply
# (x // 224, y // 224). Two tiles landing on one site are merged by
# averaging their features.

coords = 224 * np.array([(0, 0), (0, 1), (2, 1), (3, 3), (3, 4)])
features = rng.normal(size=(len(coords), 4))
smap = build_sparse_map((coords, features))
print("sites:")
print(smap.sites)
print("feature matrix shape:", smap.features.shape)

### Order never matters ######################################################
# Maps are canonicalized (site-sorted, origin at zero), so any permutation
# of the input bag produces the identical object, bit for bit.

perm = rng.permutation(len(coords))
shuffled = build_sparse_map((coords[perm], features[perm]))
print("permutation invariant:",
      np.array_equal(shuffled.sites, smap.sites)
      and np.array_equal(shuffled.features, smap.features))

### Neither does the absolute position #######################################
# Shifting every tile by whole tiles leaves the canonical map unchanged;
# slides scanned with different origins compare equal.

moved = build_sparse_map((coords + 224 * np.array([10, 3]), features))
print("translation invariant:",
      np.array_equal(moved.sites, smap.sites)
      and np.array_equal(moved.features, smap.features))

### Rigid augmentations are exactly invertible ###############################

once = augment_sparse_map(smap, SlideAugParams(rot_quarters=1))
back = once
for _ in range(3):
    back = augment_sparse_map(back, SlideAugParams(rot_quarters=1))
print("four quarter turns = identity:", np.array_equal(back.sites, smap.sites))

### Random slide-level views #################################################
# Training samples one parameter set per view: anisotropic scales in
# [0.5, 2], a quarter-turn count, and two flips.

for _ in range(3):
    params = sample_slide_aug(rng)
    view = augment_sparse_map(smap, params)
    print(f"scale=({params.scale_x:.2f}, {params.scale_y:.2f}) "
          f"rot={params.rot_quarters} flips=({params.flip_x}, {params.flip_y})"
          f" -> {view.n_sites} sites")

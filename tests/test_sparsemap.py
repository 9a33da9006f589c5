"""Sparse map construction and slide-level geometric augmentation."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slidessl.errors import DimensionMismatch, EmptyBag, SpanTooLarge
from slidessl.sparsemap import (
    DOWNSAMPLE_FACTOR,
    SCALE_RANGE,
    SlideAugParams,
    SparseMap,
    _sort_keys,
    augment_rows,
    augment_sparse_map,
    build_sparse_map,
    merge_rows,
    merge_views,
    pack_keys,
    place_tiles,
    sample_slide_aug,
    tile_order,
)


def smap_of(site_to_feat):
    """Build a SparseMap literal from {(i, j): feature_list}."""
    sites = np.array(sorted(site_to_feat), dtype=np.int64)
    feats = np.array([site_to_feat[tuple(s)] for s in sites], dtype=np.float64)
    return SparseMap(sites, feats)


def as_dict(smap):
    return {tuple(s): f.copy() for s, f in zip(smap.sites, smap.features)}


def oracle_build(coords, feats, d):
    """Independent dict-based reference: group by floored site, average."""
    groups = {}
    for (x, y), f in zip(coords, feats):
        groups.setdefault((x // d, y // d), []).append(np.asarray(f, dtype=np.float64))
    sites = sorted(groups)
    mi = min(s[0] for s in sites)
    mj = min(s[1] for s in sites)
    return {(i - mi, j - mj): np.mean(groups[(i, j)], axis=0) for i, j in sites}


class TestBuild:
    def test_floor_division_sites(self):
        # (0,0), (224,0), (0,448) at d=224 land on (0,0), (1,0), (0,2)
        m = build_sparse_map((np.array([[0, 0], [224, 0], [0, 448]]),
                              np.array([[1.0], [2.0], [3.0]])))
        assert as_dict(m).keys() == {(0, 0), (1, 0), (0, 2)}
        d = as_dict(m)
        assert d[(0, 0)] == pytest.approx([1.0])
        assert d[(1, 0)] == pytest.approx([2.0])
        assert d[(0, 2)] == pytest.approx([3.0])

    def test_collision_merges_by_mean(self):
        m = build_sparse_map((np.array([[10, 10], [20, 20]]),
                              np.array([[1.0, 3.0], [3.0, 5.0]])))
        assert m.n_sites == 1
        np.testing.assert_allclose(m.features[0], [2.0, 4.0])

    def test_origin_normalized(self):
        m = build_sparse_map((np.array([[2240, 4480], [2464, 4480]]),
                              np.array([[1.0], [2.0]])))
        assert m.sites.min(axis=0).tolist() == [0, 0]
        assert as_dict(m).keys() == {(0, 0), (1, 0)}

    def test_array_pair_input(self):
        coords = np.array([[0, 0], [224, 0]])
        feats = np.array([[1.0], [2.0]])
        m = build_sparse_map((coords, feats))
        assert as_dict(m).keys() == {(0, 0), (1, 0)}

    def test_default_downsample_is_224(self):
        assert DOWNSAMPLE_FACTOR == 224

    def test_empty_raises(self):
        with pytest.raises(EmptyBag):
            build_sparse_map((np.zeros((0, 2), dtype=np.int64),
                              np.zeros((0, 4))))

    def test_features_not_one_row_per_tile_raise(self):
        coords = np.array([[0, 0], [224, 0], [448, 0]])
        with pytest.raises(DimensionMismatch):
            build_sparse_map((coords, np.ones((2, 4))))
        with pytest.raises(DimensionMismatch):
            build_sparse_map((coords, np.ones(3)))

    def test_matches_dict_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 60))
            coords = rng.integers(0, 2000, size=(n, 2))
            feats = rng.normal(size=(n, 5))
            m = build_sparse_map((coords, feats))
            ref = oracle_build([tuple(c) for c in coords], feats, 224)
            got = as_dict(m)
            assert got.keys() == ref.keys()
            for k in ref:
                np.testing.assert_allclose(got[k], ref[k], atol=1e-12)

    def test_sites_sorted_and_unique(self):
        rng = np.random.default_rng(3)
        coords = rng.integers(0, 3000, size=(80, 2))
        m = build_sparse_map((coords, rng.normal(size=(80, 3))))
        as_tuples = [tuple(s) for s in m.sites]
        assert as_tuples == sorted(as_tuples)
        assert len(set(as_tuples)) == len(as_tuples)


class TestMergeRows:
    @staticmethod
    def add_at_oracle(features, rows, n_rows):
        merged = np.zeros((n_rows, features.shape[1]), dtype=features.dtype)
        np.add.at(merged, rows, features)
        return merged / np.bincount(rows, minlength=n_rows).astype(
            features.dtype)[:, None]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_runs_match_add_at_bytes(self, dtype):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n_rows = int(rng.integers(1, 40))
            sizes = rng.geometric(0.4, size=n_rows)
            rows = np.repeat(np.arange(n_rows), sizes)
            feats = (rng.normal(size=(len(rows), 4)) * 1e3).astype(dtype)
            feats[::3, 1] = -0.0
            got = merge_rows(feats, rows, n_rows)
            want = self.add_at_oracle(feats, rows, n_rows)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_all_inputs_on_one_row(self):
        rng = np.random.default_rng(12)
        feats = rng.normal(size=(500, 3)).astype(np.float32) * 1e4
        rows = np.zeros(500, dtype=np.int64)
        got = merge_rows(feats, rows, 1)
        assert got.tobytes() == self.add_at_oracle(feats, rows, 1).tobytes()

    def test_single_inputs_lose_negative_zero(self):
        # the merge starts at zero: 0.0 + -0.0 is 0.0
        got = merge_rows(np.array([[-0.0], [1.0], [3.0]]), np.array([0, 1, 1]), 2)
        assert got.tobytes() == np.array([[0.0], [2.0]]).tobytes()

    @staticmethod
    def loop_reference(features, rows, n_rows):
        """Every output row starts at 0.0, adds its inputs one by one in the
        order given and is divided by their count, ones included."""
        merged = np.zeros((n_rows, features.shape[1]), dtype=features.dtype)
        counts = np.zeros(n_rows, dtype=np.int64)
        for f, r in zip(features, rows.tolist()):
            merged[r] += f
            counts[r] += 1
        for r in range(n_rows):
            merged[r] /= features.dtype.type(counts[r])
        return merged

    @staticmethod
    def runs_input(sizes, dtype, seed):
        rng = np.random.default_rng(seed)
        rows = np.repeat(np.arange(len(sizes)), sizes)
        feats = (rng.normal(size=(len(rows), 5)) * 1e3).astype(dtype)
        feats[::2, 0] = -0.0
        feats[1::3, 2] = -0.0
        return feats, rows

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sizes", [
        [1, 2, 3, 4, 5, 1, 5, 2, 1, 1, 4, 3],          # lengths 1-5, mixed
        [3, 1, 5, 5, 2, 1, 1, 1, 4, 2, 3, 5, 1, 4],
        [1] * 30,                                       # every run length 1
        [40],                                           # one run, every input
        [5, 5, 5, 5],
    ])
    def test_equals_zero_start_loop(self, sizes, dtype):
        feats, rows = self.runs_input(sizes, dtype, seed=len(sizes))
        got = merge_rows(feats, rows, len(sizes))
        want = self.loop_reference(feats, rows, len(sizes))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # the lone -0.0 inputs come out +0.0
        starts = np.cumsum(sizes) - sizes
        lone = (np.array(sizes) == 1)[:, None] & (feats[starts] == 0)
        assert not np.signbit(got[lone]).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_views_without_collisions_keep_negative_zero(self, dtype):
        # view 0 has a collision, so its lone -0.0 becomes +0.0; view 1
        # has none and keeps its rows as they are; view 2 is view 0 again
        feats = np.array([[-0.0, 1.0], [2.0, -0.0], [4.0, 3.0],
                          [-0.0, -0.0], [-0.0, 5.0],
                          [-0.0, 1.0], [2.0, -0.0], [4.0, 3.0]], dtype=dtype)
        rows = np.array([0, 1, 1, 2, 3, 4, 5, 5])
        view = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        got = merge_views(feats, rows, view)
        dirty = self.loop_reference(feats[:3], rows[:3], 2)
        want = np.concatenate([dirty, feats[3:5], dirty])
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[[0, 4], 0]).any()
        assert np.signbit(got[2]).all() and np.signbit(got[3, 0])

    def test_views_without_any_collision_are_returned_as_given(self):
        feats = np.array([[-0.0], [1.0], [-0.0]], dtype=np.float32)
        got = merge_views(feats, np.arange(3), np.array([0, 0, 1]))
        assert got.tobytes() == feats.tobytes()


@st.composite
def key_columns(draw):
    """1-5 int64 columns of up to 300 rows, negatives included; narrow
    columns repeat values, so rows tie on leading keys."""
    n, m = draw(st.integers(1, 300)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cols = []
    for _ in range(m):
        lo = draw(st.integers(-10 ** 12, 10 ** 12))
        cols.append(rng.integers(lo, lo + draw(st.integers(1, 4000)), size=n))
    return cols


class TestPackKeys:
    @given(key_columns())
    @settings(max_examples=150, deadline=None)
    def test_stable_order_equals_lexsort(self, cols):
        got = np.argsort(pack_keys(np.column_stack(cols)), kind="stable")
        assert np.array_equal(got, np.lexsort(cols[::-1]))

    @pytest.mark.parametrize("spans,fits", [
        ((7, 1317624576693539401), True), ((7, 1317624576693539402), False),
        ((2 ** 32, 2 ** 31 - 1), True), ((2 ** 32, 2 ** 31), False),
        ((2 ** 63 - 1,), True), ((2 ** 63,), False), ((1, 2 ** 63 - 1, 1), True)])
    def test_span_limit_is_int64_max(self, spans, fits):
        # 7 * 1317624576693539401 is 2**63 - 1
        lo = np.iinfo(np.int64).min
        cols = [np.array([s - 1, 0]) if s <= 2 ** 62 else
                np.array([lo + s - 1, lo], dtype=np.int64) for s in spans]
        if not fits:
            with pytest.raises(SpanTooLarge, match=str(max(spans))):
                pack_keys(np.column_stack(cols))
            return
        key = pack_keys(np.column_stack(cols))
        assert key.tolist() == [math.prod(spans) - 1, 0]
        assert np.array_equal(np.argsort(key, kind="stable"), np.lexsort(cols[::-1]))

    def test_far_apart_views_pack_per_view(self):
        # two views 2**60 px apart: packing their absolute sites would need
        # more than 2**63 keys, each view's own extent needs few
        rng = np.random.default_rng(16)
        coords = rng.integers(0, 3 * 224, size=(20, 2))
        coords[10:] += 2 ** 60
        feats = rng.normal(size=(20, 3))
        view = np.repeat([0, 1], 10)
        got = place_tiles(view, coords, feats)
        want = [build_sparse_map((coords[s], feats[s])) for s in (view == 0, view == 1)]
        assert np.array_equal(np.bincount(got[0]), [w.n_sites for w in want])
        assert got[1].tobytes() == np.concatenate([w.sites for w in want]).tobytes()
        assert got[2].tobytes() == np.concatenate([w.features for w in want]).tobytes()
        with pytest.raises(SpanTooLarge):     # one slide that wide does not fit
            build_sparse_map((coords, feats))


class TestTileOrder:
    @staticmethod
    def full_key_order(sites, coords, features):
        """One lexsort over site, pixel and every feature column."""
        return np.lexsort(_sort_keys(features) + [coords[:, 1], coords[:, 0],
                                                  sites[:, 1], sites[:, 0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_full_key_order_with_pixel_ties(self, dtype):
        rng = np.random.default_rng(13)
        for _ in range(80):
            n = int(rng.integers(1, 40))
            coords = rng.integers(0, 3 * 224, size=(n, 2))
            same = int(rng.integers(0, n // 2 + 1))
            if same:
                coords[-same:] = coords[rng.integers(0, n - same, size=same)]
            feats = rng.normal(size=(n, 5)).astype(dtype)
            feats[::4, 2] = -0.0
            feats[-2:] = feats[:2]          # repeated tiles, equal in every key
            sites = coords // 224
            got = tile_order(np.column_stack([sites, coords]), feats)
            assert np.array_equal(got, self.full_key_order(sites, coords, feats))

    def test_shared_pixels_give_bit_exact_permutation_invariant_map(self):
        rng = np.random.default_rng(14)
        coords = np.repeat(rng.integers(0, 2 * 224, size=(6, 2)), 4, axis=0)
        feats = rng.normal(size=(24, 3)) * 1e3
        feats[::5, 0] = -0.0
        base = build_sparse_map((coords, feats))
        for _ in range(10):
            perm = rng.permutation(24)
            other = build_sparse_map((coords[perm], feats[perm]))
            assert other.sites.tobytes() == base.sites.tobytes()
            assert other.features.tobytes() == base.features.tobytes()
        # the merge order is the full-key order: add in it, divide by count
        sites = coords // 224
        order = self.full_key_order(sites, coords, feats)
        want = {}
        for t in order:
            key = tuple(sites[t] - sites.min(axis=0))
            total, count = want.get(key, (np.zeros(3), 0))
            want[key] = (total + feats[t], count + 1)
        assert [tuple(s) for s in base.sites] == sorted(want)
        merged = np.array([want[k][0] / want[k][1] for k in sorted(want)])
        assert base.features.tobytes() == merged.tobytes()


class TestAugment:
    def test_identity_returns_same_map(self):
        m = smap_of({(0, 0): [1.0], (2, 1): [2.0]})
        out = augment_sparse_map(m, SlideAugParams())
        assert np.array_equal(out.sites, m.sites)
        assert np.array_equal(out.features, m.features)

    def test_batch_of_views_equals_single_maps(self):
        # identity parameters inside a batch leave the view's rows as they
        # are, -0.0 included, as augment_sparse_map returns the map itself
        rng = np.random.default_rng(15)
        maps, params = [], []
        for v in range(12):
            coords = rng.integers(0, 4 * 224, size=(int(rng.integers(1, 15)), 2))
            feats = rng.normal(size=(len(coords), 3))
            feats[::2, 1] = -0.0
            maps.append(build_sparse_map((coords, feats)))
            params.append(SlideAugParams() if v % 3 == 0 else sample_slide_aug(rng))
        view = np.repeat(np.arange(12), [m.n_sites for m in maps])
        got_view, sites, feats = augment_rows(
            view, np.concatenate([m.sites for m in maps]),
            np.concatenate([m.features for m in maps]),
            [np.array(a) for a in zip(*map(astuple, params))])
        want = [augment_sparse_map(m, p) for m, p in zip(maps, params)]
        assert np.array_equal(np.bincount(got_view), [w.n_sites for w in want])
        assert sites.tobytes() == np.concatenate([w.sites for w in want]).tobytes()
        assert feats.tobytes() == np.concatenate([w.features for w in want]).tobytes()

    def test_scale_half_merges(self):
        # sites 0,1,2 on one row scale to 0,0,1: first two average
        m = smap_of({(0, 0): [2.0], (1, 0): [4.0], (2, 0): [7.0]})
        out = augment_sparse_map(m, SlideAugParams(scale_x=0.5))
        d = as_dict(out)
        assert d.keys() == {(0, 0), (1, 0)}
        np.testing.assert_allclose(d[(0, 0)], [3.0])
        np.testing.assert_allclose(d[(1, 0)], [7.0])

    def test_flip_x_reflects_about_bbox(self):
        m = smap_of({(0, 0): [1.0], (3, 1): [2.0]})
        out = augment_sparse_map(m, SlideAugParams(flip_x=True))
        d = as_dict(out)
        np.testing.assert_allclose(d[(3, 0)], [1.0])
        np.testing.assert_allclose(d[(0, 1)], [2.0])

    def test_quarter_turn(self):
        # (i, j) -> (-j, i), then shift into the positive quadrant
        m = smap_of({(0, 0): [1.0], (2, 1): [2.0]})
        out = augment_sparse_map(m, SlideAugParams(rot_quarters=1))
        d = as_dict(out)
        np.testing.assert_allclose(d[(1, 0)], [1.0])
        np.testing.assert_allclose(d[(0, 2)], [2.0])

    def test_half_turn_equals_two_quarter_turns(self):
        rng = np.random.default_rng(11)
        coords = rng.integers(0, 4000, size=(40, 2))
        m = build_sparse_map((coords, rng.normal(size=(40, 4))))
        q = SlideAugParams(rot_quarters=1)
        twice = augment_sparse_map(augment_sparse_map(m, q), q)
        once = augment_sparse_map(m, SlideAugParams(rot_quarters=2))
        assert np.array_equal(twice.sites, once.sites)
        assert np.array_equal(twice.features, once.features)

    def test_four_quarter_turns_identity(self):
        rng = np.random.default_rng(12)
        coords = rng.integers(0, 4000, size=(40, 2))
        m = build_sparse_map((coords, rng.normal(size=(40, 4))))
        out = m
        for _ in range(4):
            out = augment_sparse_map(out, SlideAugParams(rot_quarters=1))
        assert np.array_equal(out.sites, m.sites)
        assert np.array_equal(out.features, m.features)

    def test_double_flip_identity(self):
        rng = np.random.default_rng(13)
        coords = rng.integers(0, 4000, size=(30, 2))
        m = build_sparse_map((coords, rng.normal(size=(30, 4))))
        for params in (SlideAugParams(flip_x=True), SlideAugParams(flip_y=True)):
            out = augment_sparse_map(augment_sparse_map(m, params), params)
            assert np.array_equal(out.sites, m.sites)
            assert np.array_equal(out.features, m.features)

    def test_output_origin_normalized_and_canonical(self):
        rng = np.random.default_rng(14)
        coords = rng.integers(0, 4000, size=(50, 2))
        m = build_sparse_map((coords, rng.normal(size=(50, 4))))
        for seed in range(20):
            params = sample_slide_aug(np.random.default_rng(seed))
            out = augment_sparse_map(m, params)
            assert out.sites.min(axis=0).tolist() == [0, 0]
            as_tuples = [tuple(s) for s in out.sites]
            assert as_tuples == sorted(as_tuples)
            assert len(set(as_tuples)) == len(as_tuples)
            assert out.n_sites <= m.n_sites

    def test_merged_features_are_convex_combinations(self):
        # downscaling only averages: each output column stays within the
        # input column's range
        rng = np.random.default_rng(15)
        coords = rng.integers(0, 4000, size=(60, 2))
        m = build_sparse_map((coords, rng.normal(size=(60, 3))))
        out = augment_sparse_map(m, SlideAugParams(scale_x=0.5, scale_y=0.5))
        for c in range(3):
            assert out.features[:, c].min() >= m.features[:, c].min() - 1e-12
            assert out.features[:, c].max() <= m.features[:, c].max() + 1e-12

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SlideAugParams(rot_quarters=4)
        with pytest.raises(ValueError):
            SlideAugParams(scale_x=0.4)
        with pytest.raises(ValueError):
            SlideAugParams(scale_y=2.5)


class TestSampling:
    def test_scale_distribution_mean(self):
        # uniform on [0.5, 2.0] has mean 1.25
        rng = np.random.default_rng(0)
        draws = [sample_slide_aug(rng) for _ in range(4000)]
        assert SCALE_RANGE == (0.5, 2.0)
        mean_sx = np.mean([p.scale_x for p in draws])
        assert 1.2 <= mean_sx <= 1.3
        assert all(0.5 <= p.scale_x <= 2.0 for p in draws)
        assert all(0.5 <= p.scale_y <= 2.0 for p in draws)

    def test_all_rotations_and_flips_reachable(self):
        rng = np.random.default_rng(1)
        draws = [sample_slide_aug(rng) for _ in range(400)]
        assert {p.rot_quarters for p in draws} == {0, 1, 2, 3}
        assert {p.flip_x for p in draws} == {True, False}
        assert {p.flip_y for p in draws} == {True, False}

    def test_deterministic_given_seed(self):
        a = [sample_slide_aug(np.random.default_rng(42)) for _ in range(5)]
        b = [sample_slide_aug(np.random.default_rng(42)) for _ in range(5)]
        assert a == b


@st.composite
def tile_sets(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    coords = draw(st.lists(
        st.tuples(st.integers(0, 3000), st.integers(0, 3000)),
        min_size=n, max_size=n))
    feats = draw(st.lists(
        st.lists(st.floats(-100, 100, allow_nan=False, width=64),
                 min_size=3, max_size=3),
        min_size=n, max_size=n))
    return np.array(coords, dtype=np.int64), np.array(feats, dtype=np.float64)


class TestProperties:
    @given(tile_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance_bit_exact(self, tiles, pyrng):
        coords, feats = tiles
        perm = list(range(len(coords)))
        pyrng.shuffle(perm)
        a = build_sparse_map((coords, feats))
        b = build_sparse_map((coords[perm], feats[perm]))
        assert np.array_equal(a.sites, b.sites)
        assert np.array_equal(a.features, b.features)

    @given(tile_sets(), st.integers(1, 20), st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_translation_by_lattice_multiples_is_invisible(self, tiles, ki, kj):
        coords, feats = tiles
        d = DOWNSAMPLE_FACTOR
        a = build_sparse_map((coords, feats))
        b = build_sparse_map((coords + np.array([ki * d, kj * d]), feats))
        assert np.array_equal(a.sites, b.sites)
        assert np.array_equal(a.features, b.features)

    @given(tile_sets(), st.integers(0, 3), st.booleans(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_rigid_transforms_preserve_multiset_of_features(
            self, tiles, rot, fx, fy):
        coords, feats = tiles
        m = build_sparse_map((coords, feats))
        out = augment_sparse_map(
            m, SlideAugParams(flip_x=fx, flip_y=fy, rot_quarters=rot))
        assert out.n_sites == m.n_sites
        a = np.sort(m.features.round(9), axis=0)
        b = np.sort(out.features.round(9), axis=0)
        assert np.array_equal(a, b)


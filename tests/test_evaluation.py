import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from farfrustum import evaluation
from farfrustum.evaluation import (
    ap_11point,
    bev_iou,
    evaluate_boxes,
    faraway_filter,
    format_report,
    iou_3d,
    machine_lines,
    match_greedy,
    points_in_box_mask,
    points_per_object_stats,
)
from farfrustum.kitti_io import (
    MAX_POINT_RANGE_M,
    MIN_BOX_SIZE_M,
    Box3D,
    Frame,
    LabelRecord,
    PointCloud,
    bev_footprints,
)
from farfrustum.synth import camera_to_lidar_points

import oracles


def box(cx=0.0, cy=1.0, cz=50.0, w=2.0, l=4.0, h=1.5, yaw=0.0, cls="car", score=1.0):
    return Box3D(center=(cx, cy, cz), yaw=yaw, size=(w, l, h),
                 class_name=cls, score=score)


# a coordinate within MAX_POINT_RANGE_M, often at or next to an end or at 0,
# so that boxes overlap; a side from MIN_BOX_SIZE_M to MAX_POINT_RANGE_M
_R = MAX_POINT_RANGE_M
_COORD = st.one_of(st.sampled_from([-_R, -_R + 0.004, 0.0, _R - 0.004, _R]),
                   st.floats(-_R, _R))
_SIDE = st.one_of(st.sampled_from([MIN_BOX_SIZE_M, _R]), st.floats(MIN_BOX_SIZE_M, _R))
_BOUNDED_BOX = st.builds(
    lambda center, yaw, size: Box3D(center, yaw, size, "car"),
    st.tuples(_COORD, _COORD, _COORD), st.floats(-math.pi, math.pi),
    st.tuples(_SIDE, _SIDE, _SIDE),
)


class TestBevIou:
    def test_identical_is_exactly_one(self):
        b = box(yaw=0.4)
        assert bev_iou(b, b) == 1.0

    def test_disjoint_is_exactly_zero(self):
        assert bev_iou(box(cx=0.0), box(cx=100.0)) == 0.0

    def test_rotated_unit_squares_analytic(self):
        a = box(cx=0, cz=0, w=1, l=1)
        b = box(cx=0, cz=0, w=1, l=1, yaw=math.pi / 4)
        want = (2 * (math.sqrt(2) - 1)) / (2 - 2 * (math.sqrt(2) - 1))
        assert bev_iou(a, b) == pytest.approx(want, abs=1e-12)
        assert bev_iou(a, b) == pytest.approx(0.7071, abs=1e-4)

    def test_yaw_zero_matches_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = box(cx=rng.uniform(-5, 5), cz=rng.uniform(-5, 5),
                    w=rng.uniform(0.5, 3), l=rng.uniform(0.5, 5))
            b = box(cx=rng.uniform(-5, 5), cz=rng.uniform(-5, 5),
                    w=rng.uniform(0.5, 3), l=rng.uniform(0.5, 5))
            want = oracles.axis_aligned_bev_iou(
                (a.center[0], a.center[2], a.size[0], a.size[1]),
                (b.center[0], b.center[2], b.size[0], b.size[1]),
            )
            assert bev_iou(a, b) == pytest.approx(want, abs=1e-12)

    def test_matches_monte_carlo_on_random_rotated_pairs(self):
        rng = np.random.default_rng(5)
        for i in range(20):
            a = box(cx=rng.uniform(-2, 2), cz=rng.uniform(-2, 2),
                    w=rng.uniform(0.8, 3), l=rng.uniform(0.8, 5),
                    yaw=rng.uniform(-math.pi, math.pi))
            b = box(cx=a.center[0] + rng.uniform(-2, 2),
                    cz=a.center[2] + rng.uniform(-2, 2),
                    w=rng.uniform(0.8, 3), l=rng.uniform(0.8, 5),
                    yaw=rng.uniform(-math.pi, math.pi))
            want = oracles.monte_carlo_bev_iou(
                (a.center[0], a.center[2], a.size[0], a.size[1], a.yaw),
                (b.center[0], b.center[2], b.size[0], b.size[1], b.yaw),
                n_samples=100_000, seed=i,
            )
            assert bev_iou(a, b) == pytest.approx(want, abs=2e-3)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a = box(cx=rng.uniform(-3, 3), cz=rng.uniform(-3, 3),
                    yaw=rng.uniform(-math.pi, math.pi))
            b = box(cx=rng.uniform(-3, 3), cz=rng.uniform(-3, 3),
                    yaw=rng.uniform(-math.pi, math.pi))
            assert abs(bev_iou(a, b) - bev_iou(b, a)) < 1e-12

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(11)
        a = box(cx=1.0, cz=2.0, yaw=0.3)
        b = box(cx=2.0, cz=1.5, yaw=-0.8)
        base = bev_iou(a, b)
        for _ in range(10):
            dx, dz = rng.uniform(-30, 30, 2)
            dyaw = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(dyaw), math.sin(dyaw)

            def moved(bx):
                # rotate the center in the ground plane, then translate;
                # matches the bev corner convention x' = c x + s z, z' = -s x + c z
                x, z = bx.center[0], bx.center[2]
                return Box3D(
                    center=(c * x + s * z + dx, bx.center[1], -s * x + c * z + dz),
                    yaw=bx.yaw + dyaw, size=bx.size, class_name=bx.class_name,
                )

            assert bev_iou(moved(a), moved(b)) == pytest.approx(base, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(gt=st.lists(_BOUNDED_BOX, min_size=1, max_size=4),
           preds=st.lists(_BOUNDED_BOX, min_size=1, max_size=4))
    def test_boxes_within_the_bounds_have_area_and_finite_tables(self, gt, preds):
        # the footprint area and both tables never need a guard of their own
        areas = [oracles.polygon_area(b.bev_corners()) for b in gt + preds]
        for b, area in zip(gt + preds, areas):
            assert area > 0.99 * b.size[0] * b.size[1]
        for table in evaluation._iou_tables([(gt, preds)])[0]:
            assert ((table >= 0.0) & (table <= 1.0)).all()


class TestIou3d:
    def test_identical(self):
        b = box(yaw=1.0)
        assert iou_3d(b, b) == 1.0

    def test_disjoint_vertical_ranges(self):
        a = box(cy=1.0, h=1.0)
        b = box(cy=5.0, h=1.0)
        assert iou_3d(a, b) == 0.0

    def test_axis_aligned_closed_form(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = box(cx=rng.uniform(-3, 3), cy=rng.uniform(0, 2), cz=rng.uniform(-3, 3),
                    w=rng.uniform(0.5, 3), l=rng.uniform(0.5, 4), h=rng.uniform(0.5, 2))
            b = box(cx=rng.uniform(-3, 3), cy=rng.uniform(0, 2), cz=rng.uniform(-3, 3),
                    w=rng.uniform(0.5, 3), l=rng.uniform(0.5, 4), h=rng.uniform(0.5, 2))
            want = oracles.axis_aligned_iou_3d(
                (*[a.center[i] for i in range(3)], *a.size),
                (*[b.center[i] for i in range(3)], *b.size),
            )
            assert iou_3d(a, b) == pytest.approx(want, abs=1e-12)

    def test_equals_bev_when_vertical_extent_identical(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            common = dict(cy=1.2, h=1.7)
            a = box(cx=rng.uniform(-2, 2), cz=rng.uniform(-2, 2),
                    yaw=rng.uniform(-math.pi, math.pi), **common)
            b = box(cx=rng.uniform(-2, 2), cz=rng.uniform(-2, 2),
                    yaw=rng.uniform(-math.pi, math.pi), **common)
            assert iou_3d(a, b) == pytest.approx(bev_iou(a, b), abs=1e-12)


def unpruned_ious(g, p):
    """BEV and 3D IoU of one pair, clipped unconditionally, same float steps."""
    poly_g, poly_p = g.bev_corners(), p.bev_corners()
    area_g = oracles.polygon_area(poly_g)
    area_p = oracles.polygon_area(poly_p)
    inter = oracles.intersection_area(poly_g, poly_p)
    bev = min(max(inter / (area_g + area_p - inter), 0.0), 1.0)
    top_g, bottom_g = g.center[1] - g.size[2], g.center[1]
    top_p, bottom_p = p.center[1] - p.size[2], p.center[1]
    vol_g, vol_p = area_g * (bottom_g - top_g), area_p * (bottom_p - top_p)
    inter_vol = inter * max(0.0, min(bottom_g, bottom_p) - max(top_g, top_p))
    return bev, min(max(inter_vol / (vol_g + vol_p - inter_vol), 0.0), 1.0)


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def count_clip_passes(monkeypatch):
    """Record the (subject, clip) bytes of each pair of each call to the clip pass."""
    passes = []
    real = evaluation._intersection_areas

    def counting(subject, clip):
        passes.append([(a.tobytes(), b.tobytes()) for a, b in zip(subject, clip)])
        return real(subject, clip)

    monkeypatch.setattr(evaluation, "_intersection_areas", counting)
    return passes


def moved(b, dx=0.0, dz=0.0, cls=None):
    return Box3D(center=(b.center[0] + dx, b.center[1], b.center[2] + dz), yaw=b.yaw,
                 size=b.size, class_name=cls or b.class_name, score=b.score)


def padded_x_bounds(b):
    """The footprint's x range, widened by the prune margin as the table builder does."""
    poly = b.bev_corners()
    pad = evaluation._PRUNE_MARGIN * np.abs(poly).max()
    return poly[:, 0].min() - pad, poly[:, 0].max() + pad


def to_prune_bound(g, p, delta):
    """``p`` shifted along x so its padded bounds start ``delta`` past ``g``'s."""
    return moved(p, dx=float(padded_x_bounds(g)[1] - padded_x_bounds(p)[0]) + delta)


# yaw 0 boxes with dyadic sizes; edge and corner contacts are then exact, and a
# box ending at y = -0.0 touches one starting at +0.0 with an overlap of -0.0
_aligned = st.builds(
    box,
    cx=st.integers(-8, 8).map(lambda k: k / 4), cz=st.integers(236, 244).map(lambda k: k / 4),
    w=st.integers(2, 10).map(lambda k: k / 4), l=st.integers(2, 20).map(lambda k: k / 4),
    cy=st.sampled_from([1.0, 1.5, -0.0]), h=st.sampled_from([1.0, 1.75]),
    cls=st.sampled_from(["car", "pedestrian"]),
)
_rotated = st.builds(
    box,
    cx=st.floats(-3.0, 3.0), cz=st.floats(57.0, 63.0), w=st.floats(0.3, 2.5),
    l=st.floats(0.3, 5.0), cy=st.floats(0.5, 2.0), h=st.floats(0.5, 2.5),
    yaw=st.floats(-math.pi, math.pi) | st.sampled_from([0.0, math.pi / 2, math.pi]),
    cls=st.sampled_from(["car", "pedestrian"]),
)


@st.composite
def turned_or_beside(draw, g, how):
    """``g`` turned by about 45 degrees about its center, which clips to up to 8
    vertices; an equal box put corner to corner beside it, near the contact
    distance, whose bounds overlap though the clip may drop below 3 vertices;
    or a box of the same yaw whose long side lies along ``g``'s, which clips
    to 2 vertices on the shared line and must stop there."""
    if how == "octagon":
        return Box3D(g.center, g.yaw + math.pi / 4 + draw(st.floats(-0.05, 0.05)),
                     (g.size[0], g.size[0] * draw(st.floats(0.9, 1.1)), g.size[2]),
                     g.class_name)
    if how == "alongside":
        w = draw(st.floats(0.5, 3.0))
        across, along = (g.size[0] + w) / 2, draw(st.floats(-2.0, 2.0))
        c, s = math.cos(g.yaw), math.sin(g.yaw)
        return Box3D((g.center[0] + along * c + across * s, g.center[1],
                      g.center[2] - along * s + across * c), g.yaw,
                     (w, draw(st.floats(0.5, 5.0)), g.size[2]), g.class_name)
    return beside(g, draw(st.floats(0.999, 1.5)))


def beside(g, factor):
    """``g`` moved along the diagonal through its corner 3 by ``factor`` times the
    distance at which the two boxes touch corner to corner."""
    reach = math.hypot(g.size[0], g.size[1]) * factor
    turn = g.yaw + math.atan2(g.size[0], g.size[1])
    return moved(g, dx=reach * math.cos(turn), dz=-reach * math.sin(turn))


# pairs of 2 to 4 cm boxes near 10 km whose intersection rounds to an area of
# 0 or below with 3 vertices; the second's 3D IoU is -0.0, as its spans only touch
SLIVERS = [
    (Box3D((9999.0, 1.0, 9999.0), -2.2887862262462013,
           (0.035508640310311264, 0.02982051662999661, 1.0), "car"),
     Box3D((9998.973021440508, 1.0, 9998.976433748407), -1.9887862262462015,
           (0.02866577065874272, 0.02982051662999661, 1.0), "car")),
    (Box3D((9999.0, 1.0, 9999.0), -2.2887862262462013,
           (0.035508640310311264, 0.02982051662999661, 1.0), "car"),
     Box3D((9998.973021440508, 2.0, 9998.976433748407), -1.9887862262462015,
           (0.02866577065874272, 0.02982051662999661, 1.0), "car")),
    (Box3D((-9999.0, 1.0, 7000.0), -0.7412093123639565,
           (0.03644437866579927, 0.013224666646692276, 1.0), "car"),
     Box3D((-9999.024055364971, 1.0, 7000.026281125555), -0.44120931236395666,
           (0.03242747600442025, 0.013224666646692276, 1.0), "car")),
]


@st.composite
def table_cases(draw):
    gt = draw(st.lists(_aligned | _rotated, max_size=5))
    preds = draw(st.lists(_aligned | _rotated, max_size=4))
    for g in gt:
        p = draw(_aligned | _rotated)
        how = draw(st.sampled_from(
            ["identical", "edge", "corner", "inside bound", "outside bound", "other class",
             "octagon", "diamond", "alongside"]
        ))
        if how == "identical":
            preds.append(g)
        elif how in ("octagon", "diamond", "alongside"):
            preds.append(draw(turned_or_beside(g, how)))
        elif how in ("edge", "corner") and g.yaw == 0.0 and p.yaw == 0.0:
            dx = (g.size[1] + p.size[1]) / 2
            dz = (g.size[0] + p.size[0]) / 2 if how == "corner" else 0.0
            preds.append(Box3D((g.center[0] + dx, p.center[1], g.center[2] + dz), 0.0,
                               p.size, g.class_name))
        elif how == "inside bound":
            preds.append(to_prune_bound(g, p, -1e-9))
        elif how == "outside bound":
            preds.append(to_prune_bound(g, p, 1e-9))
        else:
            preds.append(moved(g, cls="cyclist"))
    order = draw(st.permutations(range(len(preds))))
    return gt, [preds[i] for i in order]


class TestIouTable:
    @given(table_cases())
    @settings(max_examples=200, deadline=None)
    def test_entries_equal_pairwise_functions_bit_for_bit(self, case):
        gt, preds = case
        [(bev, vol)] = evaluation._iou_tables([(gt, preds)])
        assert bev.shape == vol.shape == (len(gt), len(preds))
        for gi, g in enumerate(gt):
            for pi, p in enumerate(preds):
                want_bev, want_3d = unpruned_ious(g, p)
                assert same_bits(bev[gi, pi], want_bev)
                assert same_bits(vol[gi, pi], want_3d)
                assert same_bits(bev[gi, pi], bev_iou(g, p))
                assert same_bits(vol[gi, pi], iou_3d(g, p))

    def test_prune_bound_decides_the_clip(self, monkeypatch):
        passes = count_clip_passes(monkeypatch)
        g = box(yaw=0.3)
        inside = to_prune_bound(g, box(yaw=-0.7), -1e-9)
        outside = to_prune_bound(g, box(yaw=-0.7), 1e-9)
        [(bev, _)] = evaluation._iou_tables([([g], [inside])])
        assert [len(pairs) for pairs in passes] == [1] and bev[0, 0] == 0.0
        [(bev, _)] = evaluation._iou_tables([([g], [outside])])
        assert [len(pairs) for pairs in passes] == [1, 0] and bev[0, 0] == 0.0

    def test_touching_rectangles(self):
        g = box(w=2.0, l=4.0)
        for p in (moved(g, dx=4.0), moved(g, dx=4.0, dz=2.0)):
            assert bev_iou(g, p) == 0.0
            assert bev_iou(g, p) == unpruned_ious(g, p)[0]

    def test_empty_lists(self):
        for gt, preds in (([], []), ([box()], []), ([], [box()])):
            [(bev, vol)] = evaluation._iou_tables([(gt, preds)])
            assert bev.shape == vol.shape == (len(gt), len(preds))
        assert evaluation._iou_tables([]) == []

    def test_clip_shapes_are_covered(self):
        # what the drawn cases below rely on, pinned on one example each
        g = box(w=2.0, l=2.0, yaw=0.2)
        shapes = {
            "octagon": Box3D(g.center, g.yaw + math.pi / 4, g.size, "car"),
            "identical": g,
            "edge": moved(box(), dx=4.0),
            "diamond apart": beside(g, 1.005),
        }
        counts = {name: len(oracles.clip_polygon(
            (g if name != "edge" else box()).bev_corners(), p.bev_corners()))
            for name, p in shapes.items()}
        assert counts == {"octagon": 8, "identical": 4, "edge": 0, "diamond apart": 0}
        far = shapes["diamond apart"]
        assert padded_x_bounds(far)[0] < padded_x_bounds(g)[1]  # sent to the clip
        areas = [oracles.intersection_area(a.bev_corners(), b.bev_corners())
                 for a, b in SLIVERS]
        assert areas[0] < 0.0 and areas[2] == 0.0
        assert all(len(oracles.clip_polygon(a.bev_corners(), b.bev_corners())) == 3
                   for a, b in SLIVERS)

    def test_slivers_equal_the_reference_signed_zeros_included(self):
        tables = evaluation._iou_tables([([a], [b]) for a, b in SLIVERS])
        for (a, b), (bev, vol) in zip(SLIVERS, tables):
            want_bev, want_3d = unpruned_ious(a, b)
            assert same_bits(bev[0, 0], want_bev) and same_bits(vol[0, 0], want_3d)
        assert same_bits(tables[1][1][0, 0], -0.0)

    @given(st.lists(table_cases(), min_size=2, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_tables_built_together_equal_the_reference_bit_for_bit(self, cases):
        # as evaluate_boxes builds them: every table of the call in one clip pass
        for (gt, preds), (bev, vol) in zip(cases, evaluation._iou_tables(cases)):
            assert bev.shape == vol.shape == (len(gt), len(preds))
            for gi, g in enumerate(gt):
                for pi, p in enumerate(preds):
                    want_bev, want_3d = unpruned_ious(g, p)
                    assert same_bits(bev[gi, pi], want_bev) and same_bits(vol[gi, pi], want_3d)

    @given(st.lists(st.tuples(_aligned | _rotated, st.sampled_from(
        ["octagon", "diamond", "alongside", "identical", "near"]), st.data()),
        min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_one_pass_equals_the_one_pair_clip_bit_for_bit(self, drawn):
        # every pair in one call, so polygons of every vertex count share the arrays
        pairs = []
        for g, how, data in drawn:
            if how == "identical":
                p = g
            elif how == "near":
                p = moved(g, dx=data.draw(st.floats(-3.0, 3.0)), dz=data.draw(st.floats(-3.0, 3.0)))
            else:
                p = data.draw(turned_or_beside(g, how))
            pairs.append((g, p))
        pairs += SLIVERS
        subject = bev_footprints([g for g, _ in pairs])
        clip = bev_footprints([p for _, p in pairs])
        got = evaluation._intersection_areas(subject, clip)
        want = [oracles.intersection_area(a, b) for a, b in zip(subject, clip)]
        assert got.tobytes() == np.array(want).tobytes()

    @given(st.lists(st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0]),
                             min_size=1, max_size=24), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    @example([[-0.0] * 8, [-0.0] * 9, [-0.0] * 17, [-0.0] * 3])
    def test_sums_round_as_numpy_sums_each_row(self, rows):
        count = np.array([len(r) for r in rows])
        terms = np.zeros((len(rows), count.max()))
        for k, r in enumerate(rows):
            terms[k, :len(r)] = r
        want = np.array([np.sum(np.array(r)) for r in rows])
        assert evaluation._sum_as_numpy(terms, count).tobytes() == want.tobytes()


def average_iou(gt, preds, faraway=None):
    """The car aIoU evaluate_boxes reports for one frame; None when it has none."""
    report = evaluate_boxes({"f": gt}, {"f": preds}, faraway=faraway)
    return report.per_class["car"].aiou if "car" in report.per_class else None


class TestAverageIou:
    def test_perfect_predictions(self):
        gt = [box(cx=0), box(cx=10)]
        assert average_iou(gt, list(gt)) == pytest.approx(1.0)

    def test_no_predictions(self):
        assert average_iou([box()], []) == 0.0

    def test_one_matched_one_missed(self):
        gt = [box(cx=0.0, w=2, l=4), box(cx=50.0)]
        # prediction overlapping the first GT with IoU 0.4: shift along x
        # iou = inter/(2*area - inter); solve inter for 0.4: inter = 0.4*union
        # build a prediction with known IoU via axis offset
        offset = 4.0 * (1 - (2 * 0.4) / (1 + 0.4))  # inter fraction f = 2*iou/(1+iou)
        pred = [box(cx=offset)]
        want_iou = oracles.axis_aligned_bev_iou((0, 0 + 50 - 50, 2, 4), (offset, 0, 2, 4))
        got = average_iou(gt, pred)
        assert got == pytest.approx(want_iou / 2)

    def test_half_weight_for_unmatched_gt(self):
        # one GT matched at IoU 0.4, one unmatched -> (0.4 + 0) / 2
        gt = [box(cx=0.0, w=1, l=1), box(cx=100.0, w=1, l=1)]
        # axis-aligned unit squares offset so IoU is exactly 0.4: overlap a
        # satisfies a/(2-a) = 0.4 -> a = 4/7, offset = 1 - 4/7 = 3/7
        pred = [box(cx=3.0 / 7.0, w=1, l=1)]
        got = average_iou(gt, pred)
        assert got == pytest.approx(0.2, abs=1e-12)

    def test_none_when_no_faraway_gt(self):
        thresholds = {"car": 75.0}
        far = faraway_filter(thresholds)
        assert average_iou([box(cz=50.0)], [box(cz=50.0)], faraway=far) is None
        assert average_iou([box(cz=50.0)], [box(cz=80.0)], faraway=far) is None

    def test_each_prediction_used_once(self):
        gt = [box(cx=0.0), box(cx=0.5)]
        pred = [box(cx=0.25)]
        matches = match_greedy(gt, pred)
        matched = [m for m in matches if m[1] is not None]
        assert len(matched) == 1


class TestAp11Point:
    def test_single_true_positive(self):
        gt = [box()]
        pred = [box(score=0.9)]
        assert ap_11point(gt, pred, 0.1) == pytest.approx(100.0)

    def test_tp_then_fp(self):
        gt = [box()]
        pred = [box(score=0.9), box(cx=30.0, score=0.5)]
        assert ap_11point(gt, pred, 0.1) == pytest.approx(100.0)

    def test_fp_then_tp(self):
        gt = [box()]
        pred = [box(cx=30.0, score=0.9), box(score=0.5)]
        assert ap_11point(gt, pred, 0.1) == pytest.approx(50.0)

    def test_no_gt_absent(self):
        assert ap_11point([], [box(score=0.9)], 0.1) is None

    def test_no_predictions_zero(self):
        assert ap_11point([box()], [], 0.1) == 0.0

    def test_invariant_under_monotone_score_rescaling(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n_gt = int(rng.integers(1, 6))
            gt = [box(cx=float(i) * 10) for i in range(n_gt)]
            preds = []
            for i in range(int(rng.integers(1, 8))):
                preds.append(
                    box(cx=rng.uniform(-5, 10 * n_gt),
                        score=float(np.round(rng.uniform(0.05, 0.95), 3)))
                )
            base = ap_11point(gt, preds, 0.1)
            scale = float(rng.uniform(0.01, 1.0))
            rescaled = [
                Box3D(p.center, p.yaw, p.size, p.class_name, p.score * scale)
                for p in preds
            ]
            assert ap_11point(gt, rescaled, 0.1) == pytest.approx(base)

    def test_matching_is_per_frame(self):
        # prediction in the wrong frame cannot match another frame's GT,
        # even at perfect overlap
        gt = {"a": [box()], "b": []}
        preds = {"a": [], "b": [box(score=0.9)]}
        assert ap_11point(gt, preds, 0.1) == pytest.approx(0.0)
        assert ap_11point(gt, {"a": [box(score=0.9)], "b": []}, 0.1) == pytest.approx(100.0)

    def test_iou_threshold_flips_single_pair(self):
        gt = [box(cx=0.0, w=1, l=1)]
        # overlap fraction a/(2-a) = 0.3 -> a = 6/13
        pred = [box(cx=1 - 6.0 / 13.0, w=1, l=1, score=0.9)]
        value = bev_iou(gt[0], pred[0])
        assert 0.1 < value < 0.5
        assert ap_11point(gt, pred, 0.1) == pytest.approx(100.0)
        assert ap_11point(gt, pred, 0.5) == pytest.approx(0.0)


class TestEvaluateBoxes:
    def test_self_evaluation_perfect(self):
        gt = {"f0": [box(cz=80.0), box(cz=77.0, cx=5.0)],
              "f1": [box(cz=90.0, cls="pedestrian", w=0.7, l=0.9, h=1.8)]}
        report = evaluate_boxes(gt, gt, iou_threshold=0.1)
        for ev in report.per_class.values():
            assert ev.aiou == pytest.approx(1.0)
            assert ev.ap_bev == pytest.approx(100.0)
            assert ev.ap_3d == pytest.approx(100.0)

    def test_empty_predictions_zero(self):
        gt = {"f0": [box()]}
        report = evaluate_boxes(gt, {"f0": []}, iou_threshold=0.1)
        ev = report.per_class["car"]
        assert ev.aiou == 0.0
        assert ev.ap_bev == 0.0

    def test_faraway_filter_applies_to_both_sides(self):
        thresholds = {"car": 75.0}
        gt = {"f": [box(cz=80.0), box(cz=30.0)]}
        preds = {"f": [box(cz=80.0, score=0.9), box(cz=30.0, score=0.8)]}
        report = evaluate_boxes(
            gt, preds, iou_threshold=0.1, faraway=faraway_filter(thresholds)
        )
        ev = report.per_class["car"]
        assert ev.n_gt == 1
        assert ev.n_pred == 1
        assert ev.ap_bev == pytest.approx(100.0)

    def test_each_same_class_pair_clipped_at_most_once(self, monkeypatch):
        passes = count_clip_passes(monkeypatch)
        rng = np.random.default_rng(11)
        gt, preds = {}, {}
        for f in ("f0", "f1"):
            gt[f] = [box(cx=10.0 * k, cz=80.0, yaw=rng.uniform(-1, 1),
                         cls=("car", "pedestrian")[k % 2]) for k in range(6)]
            # one same-class overlap per ground truth, an overlapping box of
            # another class and a disjoint false positive
            preds[f] = [moved(g, dx=rng.uniform(-0.5, 0.5)) for g in gt[f]]
            preds[f] += [moved(gt[f][0], dx=0.2, cls="pedestrian"),
                         box(cx=200.0, cz=80.0)]
        report = evaluate_boxes(gt, preds, iou_threshold=0.1)
        assert len(passes) == 1  # every table of the call in one clip pass
        assert len(passes[0]) == len(set(passes[0])) == 12
        assert [m[3] for m in report.matches] == [0, 1, 2] * 4

    def test_report_formats(self):
        gt = {"f": [box(cz=80.0)]}
        report = evaluate_boxes(gt, gt, iou_threshold=0.1)
        table = format_report(report)
        assert "car" in table and "aIoU" in table
        lines = machine_lines(report)
        assert "car,n_gt,1" in lines
        assert any(line.startswith("car,ap_bev,") for line in lines)


class TestPointsPerObjectStats:
    def test_planted_count(self, simple_calib):
        b = box(cx=0.0, cy=1.5, cz=65.0, w=1.0, l=1.0, h=2.0, cls="pedestrian")
        pts_cam = np.array([[0.0, 1.0, 65.0]] * 7)
        cloud = PointCloud(camera_to_lidar_points(pts_cam, simple_calib), Frame.LIDAR)
        rec = LabelRecord("pedestrian", b, (0, 0, 1, 1), False)
        stats = points_per_object_stats(
            {"f": [rec]}, {"f": cloud}, {"f": simple_calib}
        )
        assert len(stats) == 1
        assert stats[0].count == 7
        assert stats[0].depth == pytest.approx(65.0)
        assert stats[0].class_name == "pedestrian"

    def test_boundary_point_counted(self):
        b = box(cx=0.0, cy=1.0, cz=50.0, w=2.0, l=4.0, h=1.5)
        on_face = np.array([[2.0, 0.5, 50.0]])  # local x = l/2 exactly
        assert points_in_box_mask(on_face, b)[0]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            b = box(cx=rng.uniform(-5, 5), cy=rng.uniform(0, 2), cz=rng.uniform(20, 80),
                    w=rng.uniform(0.5, 3), l=rng.uniform(0.5, 5), h=rng.uniform(0.5, 2),
                    yaw=rng.uniform(-math.pi, math.pi))
            pts = np.column_stack([
                rng.uniform(b.center[0] - 4, b.center[0] + 4, 200),
                rng.uniform(b.center[1] - 3, b.center[1] + 3, 200),
                rng.uniform(b.center[2] - 4, b.center[2] + 4, 200),
            ])
            got = points_in_box_mask(pts, b)
            want = [
                oracles.point_in_box3d(p, b.center, b.size, b.yaw) for p in pts
            ]
            assert got.tolist() == want

    def test_dontcare_excluded(self, simple_calib):
        rec = LabelRecord("dontcare", None, (0, 0, 1, 1), True)
        cloud = PointCloud(np.zeros((0, 3)), Frame.LIDAR)
        stats = points_per_object_stats({"f": [rec]}, {"f": cloud}, {"f": simple_calib})
        assert stats == []



@given(st.lists(st.booleans(), min_size=1, max_size=60), st.integers(0, 20))
@settings(max_examples=200, deadline=None)
def test_interp_ap_equals_the_rescan_of_every_level(hits, missed):
    # the suffix maximum gives the bits of rescanning every point per level
    cum_tp = np.cumsum(np.array(hits, dtype=np.float64))
    n_gt = int(cum_tp[-1]) + missed or 1
    recall, precision = cum_tp / n_gt, cum_tp / np.arange(1, len(hits) + 1)
    total = 0.0
    for level in np.linspace(0.0, 1.0, 11):
        candidates = [p for r, p in zip(recall, precision) if r >= level - 1e-12]
        total += max(candidates) if candidates else 0.0
    want = 100.0 * total / 11.0
    got = evaluation._interp_ap(recall, precision)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()

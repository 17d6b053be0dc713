from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mammocad.classify import Detection, RuleSet, classify, default_rules
from mammocad.features import FeatureVector
from mammocad.fractal import BlanketFit


def features_with(**overrides):
    base = dict(
        area=100,
        compactness=0.8,
        mean_gradient=3.0,
        boundary_gradient=5.0,
        gray_std=4.0,
        edge_distance_variance=0.1,
        intensity_diff=25.0,
    )
    base.update(overrides)
    return FeatureVector(**base)


def fit_with(dimension=2.5):
    return BlanketFit(
        scales=[1, 2], areas=[10.0, 8.0], dimension=dimension, intercept=2.3, residual=0.0
    )


RULES = RuleSet(min_area=50, max_area=4096)
FIT = fit_with()


class TestClassify:
    def test_all_rules_pass(self):
        det = classify(3, features_with(), FIT, RULES)
        assert det.label == "tumor"
        assert det.failed_rules == []
        assert det.region_id == 3

    def test_fit_and_dimension_carried(self):
        fit = fit_with(2.9)  # the gate, not a rule, applies the D band
        det = classify(3, features_with(), fit, RULES)
        assert det.fit is fit
        assert det.dimension == 2.9
        assert det.label == "tumor"

    def test_single_violation_named(self):
        det = classify(1, features_with(area=10), FIT, RULES)
        assert det.label == "normal"
        assert det.failed_rules == ["min_area"]

    @pytest.mark.parametrize(
        "kwargs,expected",
        [
            (dict(area=10_000), ["max_area"]),
            (dict(compactness=0.1), ["min_compactness"]),
            (dict(boundary_gradient=0.5), ["min_boundary_gradient"]),
            (dict(intensity_diff=1.0), ["min_intensity_diff"]),
        ],
    )
    def test_each_rule_fires(self, kwargs, expected):
        det = classify(1, features_with(**kwargs), FIT, RULES)
        assert det.failed_rules == expected
        assert det.label == "normal"

    def test_failed_rules_follow_declaration_order(self):
        det = classify(
            1, features_with(area=10, compactness=0.1, intensity_diff=-5.0), FIT, RULES
        )
        assert det.failed_rules == ["min_area", "min_compactness", "min_intensity_diff"]

    def test_boundary_values_pass(self):
        f = features_with(
            area=RULES.min_area,
            compactness=RULES.min_compactness,
            boundary_gradient=RULES.min_boundary_gradient,
            intensity_diff=RULES.min_intensity_diff,
        )
        assert classify(1, f, FIT, RULES).label == "tumor"
        assert classify(1, features_with(area=RULES.max_area), FIT, RULES).label == "tumor"

    @given(
        area=st.integers(0, 8000),
        cmp_=st.floats(0, 1),
        mg=st.floats(0, 20),
        diff=st.floats(-50, 50),
    )
    def test_relaxing_a_bound_never_flips_tumor_to_normal(self, area, cmp_, mg, diff):
        f = features_with(
            area=area, compactness=cmp_, boundary_gradient=mg, intensity_diff=diff
        )
        before = classify(1, f, FIT, RULES).label
        relaxed_variants = [
            RuleSet(min_area=0, max_area=RULES.max_area),
            RuleSet(min_area=RULES.min_area, max_area=10**6),
            RuleSet(min_area=RULES.min_area, max_area=RULES.max_area, min_compactness=0.0),
            RuleSet(min_area=RULES.min_area, max_area=RULES.max_area, min_boundary_gradient=0.0),
            RuleSet(min_area=RULES.min_area, max_area=RULES.max_area, min_intensity_diff=-1e9),
        ]
        if before == "tumor":
            for rules in relaxed_variants:
                assert classify(1, f, FIT, rules).label == "tumor"

    def test_detection_invariant(self):
        det = classify(2, features_with(), FIT, RULES)
        assert isinstance(det, Detection)
        assert (det.label == "tumor") == (det.failed_rules == [])


class TestRuleSet:
    def test_default_rules_quarter_area(self):
        rules = default_rules(128 * 128)
        assert rules.max_area == 128 * 128 // 4
        assert rules.min_area == 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(min_area=10, max_area=5),
            dict(min_compactness=1.5),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RuleSet(**kwargs)

    @pytest.mark.parametrize("name", [f.name for f in fields(RuleSet)])
    def test_nan_refused_in_every_field(self, name):
        """A NaN threshold would fail every comparison, labeling every region normal."""
        with pytest.raises(ValueError, match=f"^{name} must not be NaN$"):
            RuleSet(**{name: float("nan")})

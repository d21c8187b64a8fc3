import math

import numpy as np
import pytest

from bellhop.errors import InputOutOfRange, MalformedInput, OutOfDomain
from bellhop.observables import log_curve, make_observable, setting_interval, thresholds


class TestMakeObservable:
    def test_alpha_zero_bands(self):
        a0 = make_observable(0.0)
        assert a0.eval(0.26) == 1.0
        assert a0.eval(0.74) == 1.0
        assert a0.eval(0.24) == -1.0
        assert a0.eval(0.76) == -1.0

    def test_alpha_one(self):
        a1 = make_observable(1.0)
        assert a1.domain.intervals[0].lo == 1.0
        assert a1.domain.intervals[-1].hi == 2.0
        assert a1.eval(1.5) == 1.0

    def test_alpha_half(self):
        ah = make_observable(0.5)
        assert ah.eval(1.0) == 1.0
        assert ah.eval(0.6) == -1.0


    def test_largest_settings_with_quarter_bands(self):
        # spacing 1/4 up to 2**50: the quarter points are still distinct floats
        for alpha in (2.0**50, -(2.0**50) - 1.0):
            rv = make_observable(alpha)
            assert rv.breakpoints() == (alpha, alpha + 0.25, alpha + 0.75, alpha + 1.0)

    @pytest.mark.parametrize("alpha", [
        2.0**51, -(2.0**52), 1e17, 10**17, math.inf, -math.inf, math.nan,
        pytest.param(10**400, id="huge-int"), pytest.param(-10**400, id="-huge-int"),
    ])
    def test_no_quarter_bands(self, alpha):
        with pytest.raises(InputOutOfRange):
            setting_interval(alpha)
        with pytest.raises(InputOutOfRange):
            make_observable(alpha)

    @pytest.mark.parametrize("alpha", ["0.5", None, True, [0.5]])
    def test_not_a_number(self, alpha):
        with pytest.raises(InputOutOfRange, match="is not a real number"):
            setting_interval(alpha)
        with pytest.raises(InputOutOfRange, match="is not a real number"):
            make_observable(alpha)

    def test_huge_integer_message(self):
        # past 4300 digits an integer has no repr: the message counts its digits
        with pytest.raises(InputOutOfRange, match="setting a 5001-digit integer") as err:
            make_observable(10**5000)
        assert len(str(err.value)) < 300


class TestLogCurve:
    def test_midpoint(self):
        assert log_curve(0.0, 0.5) == pytest.approx(math.log(4 / 3), abs=1e-12)

    def test_zero_at_threshold(self):
        assert log_curve(0.0, 0.25) == 0.0

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            log_curve(0.0, 1.5)

    @pytest.mark.parametrize("alpha, x", [("0", 0.5), (0.0, "0.5"), (None, 0.5), (0.0, True)])
    def test_not_a_number(self, alpha, x):
        with pytest.raises(MalformedInput, match="not two real numbers"):
            log_curve(alpha, x)


class TestThresholds:
    @pytest.mark.parametrize("alpha,want", [(0.0, (0.25, 0.75)),
                                            (1.0, (1.25, 1.75)),
                                            (0.5, (0.75, 1.25))])
    def test_values(self, alpha, want):
        assert thresholds(alpha) == want

    def test_are_excluded(self):
        a0 = make_observable(0.0)
        for t in thresholds(0.0):
            assert not any(iv.lo < t < iv.hi for iv in a0.domain.intervals)
            assert t in a0.breakpoints()


def test_sign_of_log_curve_matches_observable():
    rng = np.random.default_rng(0)
    for alpha in (0.0, 0.5, 1.0):
        rv = make_observable(alpha)
        t1, t2 = thresholds(alpha)
        xs = alpha + rng.random(10_000)
        xs = xs[(xs != alpha) & (xs != t1) & (xs != t2)]
        mismatches = sum(
            1 for x in xs if rv.eval(x) != math.copysign(1.0, log_curve(alpha, x))
        )
        assert mismatches == 0

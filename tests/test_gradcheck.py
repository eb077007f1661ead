import numpy as np
import pytest

from damnet.exceptions import ConfigError
from damnet.gradcheck import (
    GRADCHECK_TOLERANCE,
    check_layer,
    finite_diff_check,
    gradcheck_report,
    max_relative_error,
)
from damnet.layers import BatchNorm, Conv2d, ReLU, softmax_cross_entropy


def rng(seed=0):
    return np.random.default_rng(seed)


def test_relu_away_from_kink_is_nearly_exact():
    r = rng(1)
    x = r.uniform(0.3, 1.5, size=(3, 2, 4, 4)) * r.choice([-1.0, 1.0], size=(3, 2, 4, 4))
    assert check_layer(ReLU(), x, rng=r) < 1e-7


def test_conv3x3_on_single_map():
    r = rng(2)
    conv = Conv2d(1, 1, 3, rng=r, dtype=np.float64)
    err = check_layer(conv, r.standard_normal((1, 1, 5, 5)), rng=r)
    assert err < 1e-5


def test_batchnorm_train_batch8():
    r = rng(3)
    bn = BatchNorm(2, dtype=np.float64)
    err = check_layer(bn, r.standard_normal((2, 8, 2, 2)), rng=r)
    assert err < 1e-4


def test_softmax_cross_entropy_four_classes():
    r = rng(4)
    logits = r.standard_normal((4, 4))
    labels = r.integers(0, 4, size=4)

    def objective():
        return softmax_cross_entropy(logits, labels)[0]

    _, grad = softmax_cross_entropy(logits, labels)
    err = finite_diff_check(objective, {"logits": logits}, {"logits": grad.copy()})
    assert err < 1e-6


def test_full_report_under_tolerance():
    report = gradcheck_report(seed=5, instances=2)
    assert set(report) == {
        "conv2d_3x3", "conv2d_1x1", "batchnorm", "relu", "avgpool2d",
        "global_avgpool", "linear", "softmax_cross_entropy",
    }
    for name, err in report.items():
        assert err < GRADCHECK_TOLERANCE, name


def test_eps_outside_sane_range_rejected():
    x = np.zeros(3)
    with pytest.raises(ConfigError):
        finite_diff_check(lambda: 0.0, {"x": x}, {"x": x}, eps=1e-2)


def test_float32_arrays_rejected():
    x = np.zeros(3, dtype=np.float32)
    with pytest.raises(ConfigError):
        finite_diff_check(lambda: 0.0, {"x": x}, {"x": x})


def test_max_relative_error_denominator_floor():
    assert max_relative_error(np.array([0.0]), np.array([0.0])) == 0.0
    # tiny disagreement divided by the 1e-8 floor, not by zero
    assert max_relative_error(np.array([0.0]), np.array([1e-10])) == pytest.approx(1e-2)

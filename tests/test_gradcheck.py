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
from damnet.layers import AvgPool2d, BatchNorm, Conv2d, softmax_cross_entropy
from damnet.model import DenseBlock, classifier_head, named_arrays, transition


def rng(seed=0):
    return np.random.default_rng(seed)


def test_relu_away_from_kink_is_nearly_exact():
    # the ReLU a pool runs after its scale and shift, on pre-activations x
    r = rng(1)
    x = r.uniform(0.3, 1.5, size=(3, 2, 4, 4)) * r.choice([-1.0, 1.0], size=(3, 2, 4, 4))
    assert check_layer(AvgPool2d(), x, rng=r, scale=np.ones(3), shift=np.zeros(3)) < 1e-7


def test_conv3x3_on_single_map():
    r = rng(2)
    conv = Conv2d(1, 1, 3, rng=r, dtype=np.float64)
    err = check_layer(conv, r.standard_normal((1, 1, 5, 5)), rng=r)
    assert err < 1e-5


def test_batchnorm_train_batch8():
    # with a conv after it, whose ReLU beta 10 keeps linear
    r = rng(3)
    bn = BatchNorm(2, dtype=np.float64)
    bn.beta[...] = 10.0
    conv = Conv2d(2, 3, 1, rng=r, dtype=np.float64)
    err = check_layer(conv, r.standard_normal((2, 8, 2, 2)), rng=r, bn=bn)
    assert err < 1e-4


@pytest.mark.parametrize("bottleneck", [False, True], ids=["plain", "BC"])
def test_dense_block(bottleneck):
    # the block normalizes its features for all its units and finishes their
    # first batchnorm's backward, so it is checked as a whole
    r = rng(7)
    block = DenseBlock(3, 2, 3, bottleneck=bottleneck, rng=r, dtype=np.float64)
    params = named_arrays([("block", block)], "PARAMS")
    for name, value in params.items():
        if name.endswith((".gamma", ".beta")):
            value[...] = r.uniform(0.5, 1.5, value.shape) * r.choice([-1.0, 1.0], value.shape)
    x = r.standard_normal((3, 4, 3, 5))
    projection = r.standard_normal((block.out_channels, 4, 3, 5))

    def objective():
        return float((block.forward(x, True) * projection).sum())

    objective()
    dx = np.array(block.backward(projection))
    grads = named_arrays([("block", block)], "PARAMS", "grad_")
    analytic = {"x": dx, **{name: grad.copy() for name, grad in grads.items()}}
    assert finite_diff_check(objective, {"x": x, **params}, analytic) < GRADCHECK_TOLERANCE


@pytest.mark.parametrize("head", [transition, classifier_head])
@pytest.mark.parametrize("bottleneck", [False, True], ids=["plain", "BC"])
def test_dense_block_with_head(bottleneck, head):
    # the head's batchnorm and ReLU run in its pool on the block's xhat, and
    # the block finishes that batchnorm's backward, so both are checked as one
    r = rng(8)
    block = DenseBlock(3, 2, 3, bottleneck=bottleneck, rng=r, dtype=np.float64)
    stage = head(block.out_channels, 4, r, np.float64)
    block._head = (stage.bn,)
    stages = [("block", block), ("head", stage)]
    params = named_arrays(stages, "PARAMS")
    for name, value in params.items():
        if name.endswith((".gamma", ".beta")):
            value[...] = r.uniform(0.5, 1.5, value.shape) * r.choice([-1.0, 1.0], value.shape)
    x = r.standard_normal((3, 4, 4, 5))

    def forward():
        return stage.forward(block.forward(x, True), True)

    projection = r.standard_normal(forward().shape)

    def objective():
        return float((forward() * projection).sum())

    objective()
    dx = np.array(block.backward(stage.backward(projection)))
    grads = named_arrays(stages, "PARAMS", "grad_")
    analytic = {"x": dx, **{name: grad.copy() for name, grad in grads.items()}}
    assert finite_diff_check(objective, {"x": x, **params}, analytic) < GRADCHECK_TOLERANCE


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

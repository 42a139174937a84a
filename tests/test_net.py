"""Network forward/backward pass, serialization, and the state encoding."""

import numpy as np
import pytest

from hrcsched import (
    CheckpointError,
    NOOP,
    NetEvaluator,
    TrainingExample,
    UniformEvaluator,
    desk_fixture,
    dumps_checkpoint,
    encode_state,
    forward,
    gradients,
    init_params,
    initial_state,
    load_checkpoint,
    loads_checkpoint,
    loss,
    loss_and_gradients,
    parse_jobspec,
    run_episode,
    save_checkpoint,
    sgd_step,
    transition,
)
from hrcsched.net import (
    KERNEL,
    POOL,
    _conv2d,
    _conv_weights,
    _maxpool,
    _maxpool_backward,
    network_width,
    plan_blocks,
)

from conftest import TINY_TEXT


def small_params(seed=7):
    return init_params(4, 3, filters=(4,), dense_units=6, seed=seed)


def small_batch(seed=3):
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(3):
        x = (rng.random((4, 3, 3)) < 0.3).astype(float)
        pi = rng.random(3)
        pi /= pi.sum()
        batch.append(TrainingExample(x=x, policy=pi, value=-float(rng.integers(1, 40))))
    return batch


def test_plan_blocks():
    # full board: two blocks, both pooled: 15x8 -> 14x7 -> 7x3 -> 6x2 -> 3x1
    assert plan_blocks(15, 8, 2) == [True, True]
    # 4x3 absorbs one block only: 3x2 pools to 1x1, leaving no room
    assert plan_blocks(4, 3, 2) == [True]
    # 2x2 convolves to 1x1 which cannot pool
    assert plan_blocks(2, 2, 2) == [False]
    assert plan_blocks(1, 1, 2) == []


def test_init_params_shapes_full_size():
    params = init_params(15, 8)
    shapes = {k: v.shape for k, v in params.items()}
    assert shapes == {
        "conv0_w": (10, 2, 2, 3),
        "conv0_b": (10,),
        "conv1_w": (10, 2, 2, 10),
        "conv1_b": (10,),
        "dense_w": (30, 128),
        "dense_b": (128,),
        "policy_w": (128, 8),
        "policy_b": (8,),
        "value_w": (128, 1),
        "value_b": (1,),
    }
    assert network_width(params) == 8


def test_init_params_bounds_and_seeding():
    params = init_params(15, 8, seed=11)
    s = np.sqrt(6.0 / (4 * 3 + 4 * 10))
    assert np.abs(params["conv0_w"]).max() <= s
    assert np.all(params["conv0_b"] == 0.0)
    assert np.all(params["dense_b"] == 0.0)
    again = init_params(15, 8, seed=11)
    for k in params:
        assert np.array_equal(params[k], again[k])
    other = init_params(15, 8, seed=12)
    assert not np.array_equal(params["dense_w"], other["dense_w"])


def test_forward_shape_contract():
    params = init_params(15, 8)
    x = np.zeros((15, 8, 3))
    x[0, 0, 0] = 1.0
    out = forward(params, x)
    assert out.p.shape == (8,)
    assert out.p.sum() == pytest.approx(1.0)
    assert np.all(out.p >= 0)
    assert isinstance(out.v, float)
    assert out.v <= 0.0


def test_forward_golden_values():
    params = small_params(seed=7)
    x = np.zeros((4, 3, 3))
    x[0, 0, 0] = 1.0
    x[0, 1, 1] = 1.0
    x[1, 0, 1] = 1.0
    x[0, 2, 2] = 1.0
    out = forward(params, x)
    expected = [0.36194868501024036, 0.31752682890031664, 0.3205244860894429]
    assert out.p == pytest.approx(expected, abs=1e-15)
    # the raw value 0.014349342262578776 is positive, so the clamp binds
    assert out.v == 0.0


def test_forward_clamps_value_only_downward():
    params = small_params()
    params["value_b"] = np.array([-5.0])
    x = np.zeros((4, 3, 3))
    assert forward(params, x).v < 0.0


def test_zero_params_give_uniform_policy_and_zero_value():
    params = {k: np.zeros_like(v) for k, v in small_params().items()}
    out = forward(params, np.zeros((4, 3, 3)))
    assert out.p.tolist() == [1 / 3, 1 / 3, 1 / 3]
    assert out.v == 0.0


def reference_conv2d(x, w, b):
    """Valid 2x2 convolution as one einsum per kernel offset."""
    bsz, h, wd, _ = x.shape
    oh, ow = h - KERNEL + 1, wd - KERNEL + 1
    out = np.zeros((bsz, oh, ow, w.shape[0]))
    for di in range(KERNEL):
        for dj in range(KERNEL):
            out += np.einsum("bhwc,fc->bhwf", x[:, di : di + oh, dj : dj + ow, :], w[:, di, dj, :])
    return out + b


def reference_maxpool(x):
    """Each window's maximum, taken at its argmax."""
    bsz, h, w, f = x.shape
    h2, w2 = h // POOL, w // POOL
    win = (
        x[:, : h2 * POOL, : w2 * POOL, :]
        .reshape(bsz, h2, POOL, w2, POOL, f)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(bsz, h2, w2, f, POOL * POOL)
    )
    idx = win.argmax(axis=-1)
    return np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]


def reference_maxpool_backward(dout, x):
    """Route each window's gradient to its argmax, the first maximum of
    ``x`` in it scanning row by row."""
    bsz, h, w, f = x.shape
    h2, w2 = h // POOL, w // POOL
    crop = x[:, : h2 * POOL, : w2 * POOL, :]
    win = (
        crop.reshape(bsz, h2, POOL, w2, POOL, f)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(bsz, h2, w2, f, POOL * POOL)
    )
    idx = win.argmax(axis=-1)
    dwin = np.zeros((bsz, h2, w2, f, POOL * POOL))
    np.put_along_axis(dwin, idx[..., None], dout[..., None], axis=-1)
    dcrop = (
        dwin.reshape(bsz, h2, w2, f, POOL, POOL)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(bsz, h2 * POOL, w2 * POOL, f)
    )
    dx = np.zeros(x.shape)
    dx[:, : h2 * POOL, : w2 * POOL, :] = dcrop
    return dx


def four_offset_conv2d(x, w, b):
    """Valid 2x2 convolution as one matmul per kernel offset, offsets summed
    in the order (0, 0), (0, 1), (1, 0), (1, 1), then the bias: the sums
    ``_conv2d`` must reproduce bit for bit."""
    bsz, h, wd, ch = x.shape
    oh, ow = h - KERNEL + 1, wd - KERNEL + 1
    out = x[:, :oh, :ow, :].reshape(-1, ch) @ w[:, 0, 0, :].T
    for di in range(KERNEL):
        for dj in range(KERNEL):
            if di or dj:
                out += x[:, di : di + oh, dj : dj + ow, :].reshape(-1, ch) @ w[:, di, dj, :].T
    out += b
    return out.reshape(bsz, oh, ow, w.shape[0])


def reshape_max_pool(x):
    """Each window's maximum, by a reshape and a reduction."""
    bsz, h, w, f = x.shape
    h2, w2 = h // POOL, w // POOL
    crop = x[:, : h2 * POOL, : w2 * POOL, :]
    return crop.reshape(bsz, h2, POOL, w2, POOL, f).max(axis=(2, 4))


# (batch, height, width, in channels, filters): the desk layers at batch 1
# and 32, then tiny boards
CONV_SHAPES = [
    (1, 15, 8, 3, 10),
    (1, 7, 3, 10, 10),
    (32, 15, 8, 3, 10),
    (32, 7, 3, 10, 10),
    (3, 4, 3, 3, 4),
    (2, 2, 2, 3, 4),
    (1, 3, 2, 4, 1),
]


def random_conv_case(rng, shape):
    bsz, h, w, ch, f = shape
    x = rng.standard_normal((bsz, h, w, ch))
    weights = rng.standard_normal((f, KERNEL, KERNEL, ch))
    return x, weights, rng.standard_normal(f)


@pytest.mark.parametrize("shape", CONV_SHAPES)
def test_conv2d_matches_einsum_reference(shape):
    bsz, h, w, _, f = shape
    rng = np.random.default_rng(sum(shape))
    for _ in range(5):
        x, weights, bias = random_conv_case(rng, shape)
        got = _conv2d(x, _conv_weights(weights), bias)
        want = reference_conv2d(x, weights, bias)
        assert got.shape == want.shape == (bsz, h - 1, w - 1, f)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


# With one filter the four-offset reference's (cells x ch) @ (ch x 1)
# products take BLAS's matrix-vector path, which sums in another order
# than the matrix-matrix path of _conv2d, so the last bits may differ
# there; the einsum test above covers that shape.
@pytest.mark.parametrize("shape", [s for s in CONV_SHAPES if s[4] >= 2])
def test_conv2d_equals_four_offset_sums_exactly(shape):
    rng = np.random.default_rng(sum(shape) + 1)
    for _ in range(5):
        x, weights, bias = random_conv_case(rng, shape)
        got = _conv2d(x, _conv_weights(weights), bias)
        assert np.array_equal(got, four_offset_conv2d(x, weights, bias))


POOL_SHAPES = [(1, 14, 7, 10), (1, 6, 2, 10), (32, 14, 7, 10), (3, 3, 2, 4), (2, 5, 5, 1)]


@pytest.mark.parametrize("shape", POOL_SHAPES)
def test_maxpool_equals_argmax_reference_exactly(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(5):
        # a ReLU output: many exact zeros, so windows often tie
        x = np.maximum(rng.standard_normal(shape), 0.0)
        got = _maxpool(x)
        assert np.array_equal(got, reference_maxpool(x))
        assert np.array_equal(got, reshape_max_pool(x))


@pytest.mark.parametrize("shape", POOL_SHAPES)
def test_maxpool_backward_equals_argmax_reference_exactly(shape):
    rng = np.random.default_rng(sum(shape) + 1)
    cases = [
        np.maximum(rng.standard_normal(shape), 0.0),  # ties at zero
        rng.integers(-1, 2, shape).astype(float),  # ties at every value
        np.zeros(shape),  # every window all zeros
        rng.standard_normal(shape),
    ]
    for x in cases:
        dout = rng.standard_normal(_maxpool(x).shape)
        got = _maxpool_backward(dout, x)
        assert np.array_equal(got, reference_maxpool_backward(dout, x))


def test_gradient_check_against_finite_differences():
    params = small_params(seed=5)
    batch = small_batch()
    analytic = gradients(params, batch, l2=1e-4)
    step = 1e-5
    for name, tensor in params.items():
        flat = tensor.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + step
            up = loss(params, batch, l2=1e-4)
            flat[j] = keep - step
            down = loss(params, batch, l2=1e-4)
            flat[j] = keep
            numeric = (up - down) / (2 * step)
            scale = max(1.0, abs(numeric) + abs(grad_flat[j]))
            assert abs(numeric - grad_flat[j]) / scale < 1e-4, (name, j)


def test_loss_decomposition():
    params = small_params()
    batch = small_batch()
    total, ce, mse, _ = loss_and_gradients(params, batch, l2=0.0)
    assert total == pytest.approx(ce + mse)
    reg_total = loss(params, batch, l2=1e-4)
    weight_norm = sum(float((t * t).sum()) for t in params.values())
    assert reg_total == pytest.approx(total + 1e-4 * weight_norm)


def test_sgd_step_algebra():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([0.5])}
    params, velocity = sgd_step(params, grads, lr=0.1, momentum=0.9)
    assert velocity["w"][0] == pytest.approx(-0.05)
    assert params["w"][0] == pytest.approx(0.95)
    params, velocity = sgd_step(params, grads, lr=0.1, momentum=0.9, velocity=velocity)
    assert velocity["w"][0] == pytest.approx(-0.095)
    assert params["w"][0] == pytest.approx(0.855)


def test_sgd_without_momentum_matches_plain_descent():
    params = small_params()
    grads = {k: np.ones_like(v) for k, v in params.items()}
    stepped, _ = sgd_step(params, grads, lr=0.01, momentum=0.0)
    for k in params:
        assert np.allclose(stepped[k], params[k] - 0.01)


def test_encode_state_tiny():
    state = initial_state(parse_jobspec(TINY_TEXT))
    x = encode_state(state, 2, 2)
    assert x.shape == (2, 2, 3)
    assert x[0, 0, 0] == 1.0  # A, human-only
    assert x[1, 0, 1] == 1.0  # B, robot-only
    assert x[0, 1, 2] == 1.0  # C, either
    assert x.sum() == 3.0


def test_encode_state_pads_bottom_left():
    state = initial_state(parse_jobspec(TINY_TEXT))
    x = encode_state(state, 15, 8)
    assert x.shape == (15, 8, 3)
    assert x[0, 0, 0] == 1.0
    assert x[1, 0, 1] == 1.0
    assert x[0, 1, 2] == 1.0
    assert x.sum() == 3.0
    from hrcsched.game import pick

    state, _, _ = transition(state, pick("A"))
    y = encode_state(state, 15, 8)
    # A left the board and B dropped into its cell
    assert y[0, 0, 0] == 0.0
    assert y[0, 0, 1] == 1.0
    assert y.sum() == 2.0


def test_encode_state_spans_cover_all_columns():
    spec = parse_jobspec(
        """
        board 3 1
        agents 1 0
        task wide H 2 0 0 3
        """
    )
    x = encode_state(initial_state(spec), 3, 3)
    assert x[0, :, 0].tolist() == [1.0, 1.0, 1.0]


def test_encode_state_rejects_oversize_board():
    state = initial_state(parse_jobspec(TINY_TEXT))
    with pytest.raises(ValueError):
        encode_state(state, 1, 1)


def test_checkpoint_round_trip_exact():
    params = init_params(15, 8, seed=3)
    text = dumps_checkpoint(params)
    back = loads_checkpoint(text)
    assert sorted(back) == sorted(params)
    for k in params:
        assert np.array_equal(back[k], params[k]), k
    assert dumps_checkpoint(back) == text


def test_checkpoint_file_round_trip(tmp_path):
    params = small_params()
    path = tmp_path / "net.txt"
    save_checkpoint(params, path)
    back = load_checkpoint(path)
    for k in params:
        assert np.array_equal(back[k], params[k])


def test_checkpoint_version_error():
    text = dumps_checkpoint(small_params())
    bad = text.replace("HRCNET v1", "HRCNET v2", 1)
    with pytest.raises(CheckpointError) as err:
        loads_checkpoint(bad)
    assert err.value.kind == "version"
    with pytest.raises(CheckpointError) as err:
        loads_checkpoint("")
    assert err.value.kind == "version"


def test_checkpoint_shape_errors():
    params = small_params()
    # a missing head tensor is structurally wrong even if well-formed
    partial = {k: v for k, v in params.items() if k != "value_b"}
    with pytest.raises(CheckpointError) as err:
        loads_checkpoint(dumps_checkpoint(partial))
    assert err.value.kind == "shape"
    # mismatched head width
    bad = dict(params)
    bad["value_w"] = np.zeros((params["value_w"].shape[0], 2))
    with pytest.raises(CheckpointError) as err:
        loads_checkpoint(dumps_checkpoint(bad))
    assert err.value.kind == "shape"
    # broken conv channel chain
    big = init_params(15, 8)
    bad = dict(big)
    bad["conv1_w"] = np.zeros((10, 2, 2, 7))
    with pytest.raises(CheckpointError) as err:
        loads_checkpoint(dumps_checkpoint(bad))
    assert err.value.kind == "shape"


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t[: t.rindex("end")],  # no end marker
        lambda t: t + "stray\n",  # content after end
        lambda t: t.replace("tensor dense_w", "tensor dense_w 0", 1),
        lambda t: t.replace("tensor", "tensr", 1),
        lambda t: "\n".join(t.splitlines()[:4]) + "\nend\n",  # payload cut short
    ],
)
def test_checkpoint_corrupt_errors(mangle):
    text = dumps_checkpoint(small_params())
    with pytest.raises(CheckpointError) as err:
        loads_checkpoint(mangle(text))
    assert err.value.kind == "corrupt"


def test_checkpoint_non_numeric_and_duplicates():
    text = dumps_checkpoint(small_params())
    lines = text.splitlines()
    payload = next(i for i, l in enumerate(lines) if not l.startswith(("HRCNET", "tensor")))
    lines[payload] = lines[payload].replace(lines[payload].split()[0], "abc", 1)
    with pytest.raises(CheckpointError) as err:
        loads_checkpoint("\n".join(lines))
    assert err.value.kind == "corrupt"

    dup = text.replace("end\n", "", 1) + text[text.index("tensor") :]
    with pytest.raises(CheckpointError) as err:
        loads_checkpoint(dup)
    assert err.value.kind == "corrupt"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_checkpoint_rejects_non_finite_values(value):
    params = small_params()
    params["value_b"] = np.array([float(value)])
    text = dumps_checkpoint(params)
    assert f"tensor value_b 1\n{value}\n" in text
    with pytest.raises(CheckpointError, match="value_b"):
        loads_checkpoint(text)


def test_net_evaluator_interface_and_cache():
    spec = parse_jobspec(TINY_TEXT)
    state = initial_state(spec)
    params = init_params(2, 2, filters=(4,), dense_units=6)
    ev = NetEvaluator(params, 2, 2)
    p, v = ev(state)
    assert p.shape == (2,)
    assert p.sum() == pytest.approx(1.0)
    assert v <= 0.0
    # a decline changes epoch bookkeeping but not the board: cache hit
    declined, _, _ = transition(state, NOOP)
    ev(declined)
    assert len(ev._cache) == 1
    from hrcsched.game import pick

    moved, _, _ = transition(state, pick("A"))
    ev(moved)
    assert len(ev._cache) == 2
    # the same layout at another clock: cache hit
    later = moved.copy()
    later.clock += 5
    assert ev(later) is ev(moved)
    assert len(ev._cache) == 2
    # the same stones, one of them a row higher: a different layout
    floating = initial_state(
        parse_jobspec("board 2 2\nagents 1 1\ntask B R 3 0 1\ntask C E 4 1 0\n")
    )
    assert sorted(floating.board.stones) == sorted(moved.board.stones)
    ev(floating)
    assert len(ev._cache) == 3


def random_pick(state, agent, actions, rng):
    picks = actions[:-1]  # legal_actions lists the picks, then NoOp
    return picks[rng.integers(len(picks))] if picks else NOOP


def with_random_biases(params, seed):
    rng = np.random.default_rng(seed)
    return {k: rng.standard_normal(t.shape) if k.endswith("_b") else t for k, t in params.items()}


@pytest.mark.parametrize("weights_seed", [0, 1])
def test_evaluator_miss_equals_forward_exactly(weights_seed):
    desk = desk_fixture()
    tiny = parse_jobspec(TINY_TEXT)
    cases = [(desk, s) for s in range(6)] + [(tiny, s) for s in range(3)]
    for size in [(desk.height, desk.width), (tiny.height, tiny.width)]:
        params = with_random_biases(init_params(*size, seed=weights_seed), weights_seed + 10)
        for spec, seed in cases:
            if spec.height > size[0]:
                continue  # the desk does not fit the tiny net's input
            record = run_episode(spec, random_pick, seed=seed)
            ev = NetEvaluator(params, *size)
            for decision in record.decisions:
                p, v = ev(decision.state)
                want = forward(params, encode_state(decision.state, *size))
                assert np.array_equal(p, want.p)
                assert v == want.v


def test_uniform_evaluator():
    ev = UniformEvaluator(4)
    state = initial_state(parse_jobspec(TINY_TEXT))
    p, v = ev(state)
    assert p.tolist() == [0.25, 0.25, 0.25, 0.25]
    assert v == 0.0

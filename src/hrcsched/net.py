"""Policy/value network over board occupancy, numpy only.

Input is an h x w x 3 one-hot map of stone kinds. Blocks of 2x2 valid
convolution (ReLU) and 2x2 max pooling feed a dense layer with two heads:
a softmax over the board's columns and a scalar value in negative time
units. Backpropagation is written out by hand; tests compare every
gradient against central finite differences.

A pooling step follows a convolution only when the convolved map is at
least 2x2, and a block is dropped entirely when the map got too small for
its convolution, so the same code serves the full-size board and the tiny
boards used in tests. Layer structure is recoverable from parameter names
and shapes alone, which keeps the checkpoint format flat.

Training runs ``_conv2d`` on every block. ``NetEvaluator`` reads the first
block's output from a table over the 256 inputs a 2x2 kernel can see on
a one-hot map, a pooled block's in one gather of the rows its pooling
windows hold, and runs ``_forward`` from the second block on; its results
equal ``forward``'s bit for bit.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .game import GameState

KERNEL = 2
POOL = 2
CHANNEL_OF_KIND = {"H": 0, "R": 1, "E": 2}
_EMPTY = len(CHANNEL_OF_KIND)  # the kind code of an empty cell
_ONE_HOT = np.eye(_EMPTY + 1, _EMPTY)  # a cell's input planes, by kind code
# A 2x2 window holding kind codes a, b, c, d at offsets (0, 0), (0, 1),
# (1, 0), (1, 1) is window number 64a + 16b + 4c + d.
_PLACE_VALUES = (_EMPTY + 1) ** np.arange(KERNEL**2 - 1, -1, -1)
FILTERS = (10, 10)  # output channels of each convolution block
DENSE_UNITS = 128
L2 = 1e-4  # weight of the squared-weight penalty in the loss


class CheckpointError(Exception):
    def __init__(self, message, kind="corrupt"):
        super().__init__(message)
        self.kind = kind  # "version" | "shape" | "corrupt"


@dataclass(frozen=True)
class PolicyValue:
    p: np.ndarray  # length-width distribution over columns
    v: float       # clamped to <= 0


@dataclass
class TrainingExample:
    x: np.ndarray       # (h, w, 3) input tensor
    policy: np.ndarray  # (w,) target distribution over columns
    value: float        # target return, <= 0


def plan_blocks(height: int, width: int, requested: int) -> list[bool]:
    """Which conv blocks fit, and whether each is followed by a pool.

    Returns a pool-after flag per retained block. Blocks beyond what the
    board can absorb are dropped.
    """
    h, w = height, width
    plan: list[bool] = []
    for _ in range(requested):
        if h < KERNEL or w < KERNEL:
            break
        h, w = h - KERNEL + 1, w - KERNEL + 1
        pooled = h >= POOL and w >= POOL
        if pooled:
            h, w = h // POOL, w // POOL
        plan.append(pooled)
    return plan


def _flat_dim(height: int, width: int, filters: tuple[int, ...]) -> int:
    h, w, ch = height, width, 3
    for pooled, f in zip(plan_blocks(height, width, len(filters)), filters):
        h, w = h - KERNEL + 1, w - KERNEL + 1
        if pooled:
            h, w = h // POOL, w // POOL
        ch = f
    return h * w * ch


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    s = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


def init_params(
    height: int,
    width: int,
    filters: tuple[int, ...] = FILTERS,
    dense_units: int = DENSE_UNITS,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Seeded uniform initialisation, scale sqrt(6 / (fan_in + fan_out))."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    kept = plan_blocks(height, width, len(filters))
    in_ch = len(CHANNEL_OF_KIND)  # the planes encode_state produces
    for i, f in enumerate(filters[: len(kept)]):
        fan_in = KERNEL * KERNEL * in_ch
        fan_out = KERNEL * KERNEL * f
        params[f"conv{i}_w"] = _glorot(rng, (f, KERNEL, KERNEL, in_ch), fan_in, fan_out)
        params[f"conv{i}_b"] = np.zeros(f)
        in_ch = f
    flat = _flat_dim(height, width, tuple(filters[: len(kept)]))
    params["dense_w"] = _glorot(rng, (flat, dense_units), flat, dense_units)
    params["dense_b"] = np.zeros(dense_units)
    params["policy_w"] = _glorot(rng, (dense_units, width), dense_units, width)
    params["policy_b"] = np.zeros(width)
    params["value_w"] = _glorot(rng, (dense_units, 1), dense_units, 1)
    params["value_b"] = np.zeros(1)
    return params


def _conv_layers(params: dict[str, np.ndarray]) -> tuple[int, ...]:
    indices = sorted(int(m.group(1)) for k in params if (m := re.fullmatch(r"conv(\d+)_w", k)))
    if indices != list(range(len(indices))):
        raise CheckpointError("convolution layers are not contiguous", kind="shape")
    return tuple(indices)


def _conv_weights(w: np.ndarray) -> np.ndarray:
    """A kernel ``(f, 2, 2, ch)`` laid out ``(ch, 4f)`` for ``_conv2d``: the
    weights of offset (di, dj) fill columns ``(2 di + dj) f`` onwards."""
    f, _, _, ch = w.shape
    return w.transpose(3, 1, 2, 0).reshape(ch, KERNEL * KERNEL * f)


def _conv2d(x: np.ndarray, wmat: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Valid 2x2 convolution with weights laid out by ``_conv_weights``.

    One matmul takes every input cell times the weights of all four kernel
    offsets. Each output cell then adds the products of the four cells
    under the kernel, offsets in the order (0, 0), (0, 1), (1, 0), (1, 1),
    and the bias last: the same sums in the same order as one matmul per
    offset, so the result is the same bit for bit. ``NetEvaluator``'s table
    of the first block adds in this order too.
    """
    bsz, h, wd, ch = x.shape
    y = (x.reshape(-1, ch) @ wmat).reshape(bsz, h, wd, KERNEL * KERNEL, -1)
    out = y[:, :-1, :-1, 0] + y[:, :-1, 1:, 1]
    out += y[:, 1:, :-1, 2]
    out += y[:, 1:, 1:, 3]
    out += b
    return out


def _maxpool(x: np.ndarray) -> np.ndarray:
    """Each 2x2 window's maximum, as the elementwise maximum of the four
    strided views of the window's cells; rows and columns beyond the last
    whole window are dropped. A reshape and a max over the window axes is
    faster on the desk's second block at batch 1, but takes 4.5 times as
    long on its first block at batch 32, which training runs."""
    h, w = x.shape[1] // POOL * POOL, x.shape[2] // POOL * POOL
    top = np.maximum(x[:, 0:h:POOL, 0:w:POOL], x[:, 0:h:POOL, 1:w:POOL])
    return np.maximum(top, np.maximum(x[:, 1:h:POOL, 0:w:POOL], x[:, 1:h:POOL, 1:w:POOL]))


def _maxpool_backward(dout: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Route each window's gradient to the first cell of ``x`` equal to the
    window's maximum, visiting ``_maxpool``'s four strided views in
    row-major order."""
    h, w = x.shape[1] // POOL * POOL, x.shape[2] // POOL * POOL
    top = _maxpool(x)
    unrouted = np.ones(top.shape, dtype=bool)
    dx = np.zeros(x.shape)
    for di in range(POOL):
        for dj in range(POOL):
            hit = unrouted & (x[:, di:h:POOL, dj:w:POOL] == top)
            dx[:, di:h:POOL, dj:w:POOL] = np.where(hit, dout, 0.0)
            unrouted &= ~hit
    return dx


def _prepare(params: dict[str, np.ndarray], height: int, width: int, channels: int):
    """Check ``params`` against inputs of height x width x channels and lay
    the conv kernels out for ``_conv2d``.

    Returns the net ``_forward`` runs: a (weights, bias, pool-after) triple
    per conv layer, then the dense, policy and value weights and biases.
    """
    layers = []
    h, w, ch = height, width, channels
    for i in _conv_layers(params):
        kernel, bias = params[f"conv{i}_w"], params[f"conv{i}_b"]
        if h < KERNEL or w < KERNEL:
            raise CheckpointError(f"input {h}x{w} too small for conv{i}", kind="shape")
        if ch != kernel.shape[3]:
            raise CheckpointError(
                f"conv{i} expects {kernel.shape[3]} channels, got {ch}", kind="shape"
            )
        h, w, ch = h - KERNEL + 1, w - KERNEL + 1, kernel.shape[0]
        pooled = h >= POOL and w >= POOL
        if pooled:
            h, w = h // POOL, w // POOL
        layers.append((_conv_weights(kernel), bias, pooled))
    dense_w = params["dense_w"]
    if h * w * ch != dense_w.shape[0]:
        raise CheckpointError(
            f"flattened size {h * w * ch} does not match dense layer {dense_w.shape[0]}",
            kind="shape",
        )
    if network_width(params) != width:
        raise CheckpointError(
            f"policy head has {network_width(params)} columns, the input {width}", kind="shape"
        )
    return (
        tuple(layers), dense_w, params["dense_b"], params["policy_w"], params["policy_b"],
        params["value_w"], params["value_b"],
    )


def _forward(net, x: np.ndarray):
    """The forward pass of a prepared net over a batch of inputs.

    Returns (p, raw v, what backprop needs). The last is a tuple: the
    input, ReLU output and pool-after flag of each conv layer, the shape of
    the last conv block's output, the flattened features, the dense layer's
    ReLU output and the policy's log-probabilities. Training runs it on
    the one-hot input; ``NetEvaluator`` runs it from the second block on,
    on the first block's output read from its table.
    """
    layers, dense_w, dense_b, policy_w, policy_b, value_w, value_b = net
    blocks = []
    a = x
    for wmat, b, pooled in layers:
        relu = _conv2d(a, wmat, b)
        np.maximum(relu, 0.0, out=relu)
        blocks.append((a, relu, pooled))
        a = _maxpool(relu) if pooled else relu
    flat = a.reshape(a.shape[0], -1)
    # in place, to save temporaries; the pinned outputs rest on this order of
    # operations, so keep it
    h1 = flat @ dense_w
    h1 += dense_b
    np.maximum(h1, 0.0, out=h1)
    log_p = h1 @ policy_w
    log_p += policy_b
    log_p -= log_p.max(axis=1, keepdims=True)
    p = np.exp(log_p)
    log_p -= np.log(p.sum(axis=1, keepdims=True))
    np.exp(log_p, out=p)
    v = h1 @ value_w
    v += value_b
    return p, v[:, 0], (blocks, a.shape, flat, h1, log_p)


def _forward_batch(params: dict[str, np.ndarray], x: np.ndarray):
    """``_forward`` with the net prepared for this call, since training
    changes the weights at every step. Returns (p, raw v, what backprop
    needs)."""
    if x.ndim != 4:
        raise ValueError("expected a batch of rank-3 inputs")
    return _forward(_prepare(params, *x.shape[1:]), x)


def forward(params: dict[str, np.ndarray], x: np.ndarray) -> PolicyValue:
    """Evaluate one input. The value is clamped to be non-positive."""
    p, v, _ = _forward_batch(params, np.asarray(x, dtype=float)[None])
    return PolicyValue(p=p[0], v=float(min(v[0], 0.0)))


def _stack(batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xs = np.stack([np.asarray(e.x, dtype=float) for e in batch])
    pis = np.stack([np.asarray(e.policy, dtype=float) for e in batch])
    zs = np.asarray([e.value for e in batch], dtype=float)
    return xs, pis, zs


def _batch_loss(params, batch, l2: float):
    """Forward pass over a minibatch. Returns (total loss, mean policy
    cross-entropy, mean value squared error) and what backprop needs:
    (target policies, target values, p, raw v, forward intermediates)."""
    xs, pis, zs = _stack(batch)
    p, v, saved = _forward_batch(params, xs)
    log_p = saved[-1]
    ce = float(-(pis * log_p).sum(axis=1).mean())
    mse = float(((zs - v) ** 2).mean())
    reg = 0.0  # left to right: builtin sum() compensates from Python 3.12 on
    for t in params.values():
        reg += float((t * t).sum())
    reg *= l2
    return (ce + mse + reg, ce, mse), (pis, zs, p, v, saved)


def loss(params, batch, l2: float = L2) -> float:
    return _batch_loss(params, batch, l2)[0][0]


def loss_and_gradients(params, batch, l2: float = L2):
    """Analytic gradients of the combined loss for one minibatch."""
    (total, ce, mse), (pis, zs, p, v, saved) = _batch_loss(params, batch, l2)
    blocks, conv_out_shape, flat, h1, _ = saved
    bsz = len(zs)

    grads = {}
    dlogits = (p - pis) / bsz
    grads["policy_w"] = h1.T @ dlogits
    grads["policy_b"] = dlogits.sum(axis=0)
    dv = (2.0 * (v - zs) / bsz)[:, None]
    grads["value_w"] = h1.T @ dv
    grads["value_b"] = dv.sum(axis=0)

    dh1 = dlogits @ params["policy_w"].T + dv @ params["value_w"].T
    dz1 = dh1 * (h1 > 0)
    grads["dense_w"] = flat.T @ dz1
    grads["dense_b"] = dz1.sum(axis=0)

    da = (dz1 @ params["dense_w"].T).reshape(conv_out_shape)
    for i in reversed(range(len(blocks))):
        a_in, relu, pooled = blocks[i]
        if pooled:
            da = _maxpool_backward(da, relu)
        dz = da * (relu > 0)
        w = params[f"conv{i}_w"]
        oh, ow, f = dz.shape[1:]
        ch = a_in.shape[3]
        dz_rows = dz.reshape(-1, f)  # one row per output cell
        dw = np.zeros_like(w)
        da_in = np.zeros_like(a_in)
        for di in range(KERNEL):
            for dj in range(KERNEL):
                patch = a_in[:, di : di + oh, dj : dj + ow, :].reshape(-1, ch)
                dw[:, di, dj, :] = dz_rows.T @ patch
                da_in[:, di : di + oh, dj : dj + ow, :] += (dz_rows @ w[:, di, dj, :]).reshape(
                    bsz, oh, ow, ch
                )
        grads[f"conv{i}_w"] = dw
        grads[f"conv{i}_b"] = dz.sum(axis=(0, 1, 2))
        da = da_in

    # in params order, which clip_gradients sums the norm in
    return total, ce, mse, {k: grads[k] + 2.0 * l2 * t for k, t in params.items()}


def gradients(params, batch, l2: float = L2) -> dict[str, np.ndarray]:
    return loss_and_gradients(params, batch, l2)[3]


def sgd_step(params, grads, lr: float, momentum: float, velocity=None):
    """Classic momentum update. Returns (new params, new velocity)."""
    if velocity is None:
        velocity = {k: np.zeros_like(t) for k, t in params.items()}
    new_params = {}
    new_velocity = {}
    for k, t in params.items():
        vel = momentum * velocity[k] - lr * grads[k]
        new_velocity[k] = vel
        new_params[k] = t + vel
    return new_params, new_velocity


@functools.lru_cache(maxsize=1)  # a process encodes one job's states many times in a row
def _kind_codes(job) -> np.ndarray:
    """Each task's kind code, its ``CHANNEL_OF_KIND`` channel, then
    ``_EMPTY`` last, where an empty cell's task index -1 reads."""
    codes = np.array([CHANNEL_OF_KIND[k] for k in job.kinds] + [_EMPTY])
    codes.flags.writeable = False
    return codes


def _kind_grid(state: GameState, height: int, width: int) -> np.ndarray:
    """The kind code of every cell, height x width. A smaller board sits in
    the bottom-left corner, with empty cells above and to the right."""
    job = state.job
    if job.height > height or job.width > width:
        raise ValueError(
            f"board {job.height}x{job.width} exceeds the configured "
            f"input {height}x{width}"
        )
    codes = _kind_codes(job).take(state.cells).reshape(job.height, job.width)
    if codes.shape == (height, width):
        return codes
    grid = np.full((height, width), _EMPTY)
    grid[: job.height, : job.width] = codes
    return grid


def encode_state(state: GameState, height: int, width: int) -> np.ndarray:
    """One-hot kind occupancy of the stones still on the board.

    Channel 0 human-only, 1 robot-only, 2 either. Smaller boards sit in the
    bottom-left corner with zero padding above and to the right.
    """
    return _ONE_HOT[_kind_grid(state, height, width)]


@functools.lru_cache(maxsize=1)  # a process evaluates one input size many times in a row
def _kernel_windows(height: int, width: int) -> np.ndarray:
    """For each output cell of a valid 2x2 convolution over height x width
    inputs, the flat indices of the four input cells under its kernel, in
    ``_conv2d``'s offset order."""
    corners = np.arange(height - KERNEL + 1)[:, None] * width + np.arange(width - KERNEL + 1)
    offsets = (np.arange(KERNEL)[:, None] * width + np.arange(KERNEL)).ravel()
    windows = corners[..., None] + offsets
    windows.flags.writeable = False
    return windows


@functools.lru_cache(maxsize=1)  # as _kernel_windows
def _pooled_windows(height: int, width: int) -> np.ndarray:
    """``_kernel_windows`` cut into ``_maxpool``'s four strided views of
    the convolution's output, stacked in its order (0, 0), (0, 1), (1, 0),
    (1, 1): shape (4, ph, pw, 4). Rows and columns beyond the last whole
    pooling window are left out."""
    windows = _kernel_windows(height, width)
    h, w = windows.shape[0] // POOL * POOL, windows.shape[1] // POOL * POOL
    views = np.stack([windows[di:h:POOL, dj:w:POOL] for di in range(POOL) for dj in range(POOL)])
    views.flags.writeable = False
    return views


CHECKPOINT_HEADER = "HRCNET v1"
_VALUES_PER_LINE = 6


def dumps_checkpoint(params: dict[str, np.ndarray]) -> str:
    lines = [CHECKPOINT_HEADER]
    for name, tensor in params.items():
        dims = " ".join(str(d) for d in tensor.shape)
        lines.append(f"tensor {name} {dims}")
        flat = tensor.reshape(-1)
        for i in range(0, flat.size, _VALUES_PER_LINE):
            lines.append(" ".join(f"{x:.17g}" for x in flat[i : i + _VALUES_PER_LINE]))
    lines.append("end")
    return "\n".join(lines) + "\n"


def save_checkpoint(params: dict[str, np.ndarray], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_checkpoint(params))


def loads_checkpoint(text: str) -> dict[str, np.ndarray]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != CHECKPOINT_HEADER:
        raise CheckpointError(
            f"expected header {CHECKPOINT_HEADER!r}", kind="version"
        )
    params: dict[str, np.ndarray] = {}
    i = 1
    ended = False
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if line == "end":
            ended = True
            break
        fields = line.split()
        if fields[0] != "tensor":
            raise CheckpointError(f"unexpected line {line!r}")
        if len(fields) < 3:
            raise CheckpointError("truncated tensor header")
        name = fields[1]
        if name in params:
            raise CheckpointError(f"duplicate tensor {name!r}")
        # isdigit alone also passes digits int() refuses, such as superscript two
        if not all(f.isascii() and f.isdigit() and int(f) > 0 for f in fields[2:]):
            raise CheckpointError(f"tensor {name!r} has bad dimensions")
        dims = [int(f) for f in fields[2:]]
        count = 1
        for d in dims:
            count *= d
        values: list[float] = []
        while len(values) < count:
            if i >= len(lines):
                raise CheckpointError(f"tensor {name!r} payload truncated")
            try:
                values.extend(float(t) for t in lines[i].split())
            except ValueError:
                raise CheckpointError(f"tensor {name!r} has a non-numeric value") from None
            i += 1
        if len(values) != count:
            raise CheckpointError(f"tensor {name!r} payload has extra values")
        params[name] = np.asarray(values).reshape(dims)
        if not np.isfinite(params[name]).all():
            raise CheckpointError(f"tensor {name!r} has a non-finite value")
    if not ended:
        raise CheckpointError("missing end marker")
    for rest in lines[i:]:
        if rest.strip():
            raise CheckpointError("content after the end marker")
    _validate_structure(params)
    return params


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        return loads_checkpoint(fh.read())


_EXPECTED_SUFFIX = ["dense_w", "dense_b", "policy_w", "policy_b", "value_w", "value_b"]


def _validate_structure(params: dict[str, np.ndarray]) -> None:
    conv = _conv_layers(params)
    expected = [n for i in conv for n in (f"conv{i}_w", f"conv{i}_b")] + _EXPECTED_SUFFIX
    if sorted(params) != sorted(expected):
        extra = sorted(set(params) - set(expected))
        missing = sorted(set(expected) - set(params))
        raise CheckpointError(
            f"unexpected tensor set (extra {extra}, missing {missing})", kind="shape"
        )
    in_ch = None
    for i in conv:
        w, b = params[f"conv{i}_w"], params[f"conv{i}_b"]
        if w.ndim != 4 or w.shape[1] != KERNEL or w.shape[2] != KERNEL:
            raise CheckpointError(f"conv{i}_w has shape {w.shape}", kind="shape")
        if b.shape != (w.shape[0],):
            raise CheckpointError(f"conv{i}_b does not match conv{i}_w", kind="shape")
        if in_ch is not None and w.shape[3] != in_ch:
            raise CheckpointError(f"conv{i} input channels break the chain", kind="shape")
        in_ch = w.shape[0]
    for name in ("dense_w", "policy_w", "value_w"):
        if params[name].ndim != 2:
            raise CheckpointError(f"{name} has shape {params[name].shape}", kind="shape")
    dense_w, dense_b = params["dense_w"], params["dense_b"]
    units = dense_w.shape[1]
    if dense_b.shape != (units,):
        raise CheckpointError("dense bias does not match dense weights", kind="shape")
    for head in ("policy", "value"):
        w, b = params[f"{head}_w"], params[f"{head}_b"]
        if w.shape[0] != units or b.shape != (w.shape[1],):
            raise CheckpointError(f"{head} head does not match dense layer", kind="shape")
    if params["value_w"].shape[1] != 1:
        raise CheckpointError("value head must produce a scalar", kind="shape")


def network_width(params: dict[str, np.ndarray]) -> int:
    return params["policy_w"].shape[1]


class NetEvaluator:
    """Adapter giving the search (column priors, value) for a state.

    The weights are checked against the input size and the conv kernels
    laid out once, here, so ``params`` must not change while the evaluator
    is in use. Its results equal ``forward``'s on ``encode_state`` bit for
    bit.

    The first conv block is read from a table. Its input is one-hot, so its
    output at a cell depends only on the four kind codes under the kernel:
    4^4 = 256 windows. The table holds the block's ReLU output for each. A
    one-hot row times the kernel gives the kernel's row exactly, and each
    entry adds those rows and the bias in ``_conv2d``'s order, so it equals
    ``_conv2d``'s output bit for bit. An evaluation maps the layout to kind
    codes and reads one row per output cell. When the block pools, it reads
    only the cells ``_maxpool`` keeps, as its four strided views in one
    gather (``_pooled_windows``), and takes their maximum as ``_maxpool``
    does: the same operands in the same order. Then it runs ``_forward``
    from the second block on. A net with no conv block runs ``_forward`` on
    ``encode_state``.

    Evaluations are cached per job and layout, the state's ``cells``: the
    input reads nothing else of the state, so states differing in clocks
    or remaining times share one forward pass.
    """

    def __init__(self, params, height: int, width: int):
        self.height = height
        self.width = width
        self._net = _prepare(params, height, width, len(CHANNEL_OF_KIND))
        self._table = None
        self._cache: dict = {}
        if self._net[0]:
            (wmat, bias, self._pooled), *rest = self._net[0]
            self._net = (tuple(rest), *self._net[1:])  # the second block on
            # y[code, offset] is what _conv2d's matmul gives a cell of that
            # code at that offset, and table[a, b, c, d] adds y[a, 0],
            # y[b, 1], y[c, 2], y[d, 3] and the bias in _conv2d's order
            y = (_ONE_HOT @ wmat).reshape(_EMPTY + 1, KERNEL * KERNEL, -1)
            table = y[:, None, 0] + y[:, 1]
            table = table[:, :, None] + y[:, 2]
            table = table[:, :, :, None] + y[:, 3]
            table += bias
            table = table.reshape(-1, table.shape[-1])  # by window number
            self._table = np.maximum(table, 0.0, out=table)
            windows = _pooled_windows if self._pooled else _kernel_windows
            self._windows = windows(height, width)

    def __call__(self, state: GameState) -> tuple[np.ndarray, float]:
        key = (state.job, tuple(state.cells))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if self._table is None:
            x = encode_state(state, self.height, self.width)[None]
        else:
            codes = _kind_grid(state, self.height, self.width).ravel()
            x = self._table[codes[self._windows] @ _PLACE_VALUES]
            if self._pooled:
                # _maxpool's maxima of its four views, read straight off the table
                x = np.maximum(np.maximum(x[0], x[1]), np.maximum(x[2], x[3]))
            x = x[None]
        p, v, _ = _forward(self._net, x)
        result = self._cache[key] = (p[0], float(min(v[0], 0.0)))
        return result


class UniformEvaluator:
    """Flat priors and zero value; useful as a no-knowledge baseline."""

    def __init__(self, width: int):
        self.width = width

    def __call__(self, state: GameState) -> tuple[np.ndarray, float]:
        return np.full(self.width, 1.0 / self.width), 0.0

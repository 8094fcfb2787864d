"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Everything runs in 64-bit floats: the models here are desk-scale, and
determinism plus tight finite-difference agreement matter more than speed.
Gradients are recorded define-by-run on an explicit :class:`Tape`:

    with Tape() as tape:
        loss = mean(cosine(rows, interest))
    backward(tape, loss)        # rows.grad now holds dloss/drows

A tape is single-threaded; independent samples may each run their own tape
concurrently. ``backward`` walks the tape once, in reverse recording order,
so gradient accumulation order is deterministic and runs are bit-reproducible
for a fixed seed. Only leaves (tensors no op of the tape produced, such as
parameters) get a ``.grad``, and repeated ``backward`` calls without
``zero_grad`` add another full dloss/dleaf into it.

Op outputs may share storage with their inputs (reshape, an identity
gather); treat tensor ``.data`` as read-only once it has entered an op.
Gradient arrays are only ever replaced, never mutated in place, so aliasing
between them is safe.

Most ops are one numpy expression each. The recurring pieces of the model
are kernels written out by hand, each one tape node with a hand-written
backward: :func:`lstm_last` runs the whole recurrence with backpropagation
through time, :func:`conv1d` projects each tap once and shift-adds the
projections instead of building a window buffer, :func:`attention`
projects to queries, keys and values with one product by its one (d, 3d)
weight and runs every head in batched products, :func:`feed_forward` works
on 2-D reshaped products, :func:`layer_norm` normalises in place,
:func:`attention_pool` pools each sequence of a stack by its rows' softmax
weights against a query, and :func:`cosine` scores each row of a stack
against its stack's one row. Each reports exactly the FLOPs of the
op-by-op form it replaces (layer norm keeps its 7 per element), so the
analytic cost model and the counter agree. Every op takes Tensors (a fixed
number is a :func:`constant`) and every kernel its weight tensors, as
:func:`lstm_last` takes ``w_ih``, ``w_hh`` and ``bias``. An op takes only
the layouts its callers in the package pass: every kernel but
:func:`feed_forward` and :func:`layer_norm` takes a (G, L, ...) stack and
no lone sequence or vector, so a test passes a stack of one, and
:func:`vsum` sums the one axis it is given.
:func:`gather_rows` scatters its gradient back with one ``bincount``, which
adds repeated picks in the order ``np.add.at`` would. Ops own their no-op
cases, so callers need no fast path of their own: a gather that picks every
row once and in order records no gather, and a :func:`concat_rows` of one
part returns that part. :func:`softmax` and :func:`logsumexp` reduce the
last axis, and layer norm's and cosine's epsilons are the constants
``LAYER_NORM_EPS`` and ``COSINE_EPS``.

A thread-local FLOP counter (:func:`count_flops`) can be armed around any
forward pass; every op then reports its cost as multiply-adds x2 plus fixed
per-element constants for softmax and layer norm (see ``_FLOPS_PER_ELEM``).
:func:`recording` tells whether a tape is active on the calling thread.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np


class _State(threading.local):
    """Per-thread tape and FLOP counter; ``None`` when not armed."""

    tape: "Tape | None" = None
    flops: "FlopCounter | None" = None


_STATE = _State()

# Fixed per-element costs for non-multiply-add work. The analytic cost model
# in the efficiency module does not read this table: it hard-codes the same
# constants in its closed forms, and its tests hold the two in agreement.
_FLOPS_PER_ELEM = {
    "softmax": 5,
    "layer_norm": 7,
}
LAYER_NORM_EPS = 1e-5
COSINE_EPS = 1e-12


def _tape() -> "Tape | None":
    return _STATE.tape


def recording() -> bool:
    """True while a :class:`Tape` is active on the calling thread."""
    return _tape() is not None


def _count(n: int) -> None:
    c = _STATE.flops
    if c is not None:
        c.flops += n


class FlopCounter:
    """Accumulates the FLOP cost of every op executed while armed."""

    __slots__ = ("flops",)

    def __init__(self) -> None:
        self.flops = 0


class count_flops:
    """Context manager arming a thread-local multiply-add counter."""

    def __enter__(self) -> FlopCounter:
        self._prev = _STATE.flops
        c = FlopCounter()
        _STATE.flops = c
        return c

    def __exit__(self, *exc) -> None:
        _STATE.flops = self._prev


class Tensor:
    """A shaped float64 array with an optional gradient slot.

    ``grad`` is populated by :func:`backward` for every leaf (no op's output)
    that had ``requires_grad`` when the tape recorded it. Tensors are
    value-like: ops never mutate ``data`` (the optimizer, which owns the
    parameters, is the one exception).
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        self.data = data
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    def item(self) -> float:
        """The value of a shape-() tensor, such as a loss."""
        if self.data.ndim:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    arr = np.asarray(data, dtype=np.float64)
    return Tensor(arr, requires_grad=requires_grad)


def constant(data) -> Tensor:
    return tensor(data, requires_grad=False)


def glorot(shape: tuple, rng: np.random.Generator) -> Tensor:
    """Trainable Glorot-uniform draw, fans ``shape[0]`` and ``shape[-1]``."""
    lim = np.sqrt(6.0 / (shape[0] + shape[-1]))
    return tensor(rng.uniform(-lim, lim, size=shape), requires_grad=True)


class _Node:
    __slots__ = ("out", "inputs", "bwd")

    def __init__(self, out: Tensor, inputs: tuple, bwd: Callable):
        self.out = out
        self.inputs = inputs
        self.bwd = bwd


class Tape:
    """Ordered record of ops; inputs of every node precede it."""

    def __init__(self) -> None:
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        self._prev = _STATE.tape
        _STATE.tape = self
        return self

    def __exit__(self, *exc) -> None:
        _STATE.tape = self._prev

    def __len__(self) -> int:
        return len(self.nodes)


def _make(data: np.ndarray, inputs: tuple, bwd: Callable) -> Tensor:
    """Build an op output, recording it if a tape is active and needed."""
    tape = _tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out = Tensor(data, requires_grad=True)
        tape.nodes.append(_Node(out, inputs, bwd))
        return out
    return Tensor(data, requires_grad=False)


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate dloss/dt into ``t.grad`` for every leaf ``t`` on ``tape``:
    a tensor with ``requires_grad`` that no node produced. Op outputs get no
    ``.grad``: their adjoints live in a side table until passed on.

    ``loss`` must be a scalar produced on ``tape``. Adjoints are only ever
    replaced (never mutated in place), so a returned gradient may safely
    alias op output storage.
    """
    if loss.data.ndim != 0:
        raise ValueError(
            f"backward expects a scalar loss, got shape {loss.data.shape}"
        )
    adj: dict[Tensor, np.ndarray] = {loss: np.ones((), dtype=np.float64)}
    for node in reversed(tape.nodes):
        g = adj.pop(node.out, None)
        if g is None:
            continue
        for t, gi in zip(node.inputs, node.bwd(g)):
            if gi is None or not t.requires_grad:
                continue
            prev = adj.get(t)
            adj[t] = gi if prev is None else prev + gi
    for t, g in adj.items():
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    data = a.data + b.data
    _count(data.size)
    return _make(
        data, (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def sub(a, b) -> Tensor:
    data = a.data - b.data
    _count(data.size)
    return _make(
        data, (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
    )


def mul(a, b) -> Tensor:
    data = a.data * b.data
    _count(data.size)
    return _make(
        data, (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def relu(x) -> Tensor:
    data = np.maximum(x.data, 0.0)
    _count(data.size)
    return _make(data, (x,), lambda g: (g * (x.data > 0.0),))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def vsum(x, axis: int) -> Tensor:
    """The sum along ``axis``, which is dropped from the shape."""
    data = x.data.sum(axis=axis)
    _count(x.data.size)
    return _make(data, (x,), lambda g: (np.broadcast_to(np.expand_dims(g, axis), x.data.shape),))


def mean(x) -> Tensor:
    """The mean of every entry, a shape-``()`` value."""
    data = x.data.mean()
    _count(x.data.size)

    def bwd(g):
        return (np.broadcast_to(g / x.data.size, x.data.shape),)

    return _make(data, (x,), bwd)


def softmax(x) -> Tensor:
    """Probabilities along the last axis; max-subtracted for stability."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)
    _count(_FLOPS_PER_ELEM["softmax"] * data.size)

    def bwd(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        return ((g - inner) * data,)

    return _make(data, (x,), bwd)


def logsumexp(x) -> Tensor:
    """Stable log(sum(exp(x))) along the last axis, which is dropped from
    the shape; a vector gives a shape-``()`` value."""
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=-1, keepdims=True)
    data = (m + np.log(s)).squeeze(-1)
    _count(_FLOPS_PER_ELEM["softmax"] * x.data.size)

    def bwd(g):
        return (g[..., None] * (e / s),)

    return _make(data, (x,), bwd)


def layer_norm(x, gamma, beta) -> Tensor:
    """Row-wise layer normalization over the last axis, with affine params
    and ``LAYER_NORM_EPS`` added to each row's variance.

    One tape node. The forward pass keeps two full-size arrays, the
    normalised rows and the output: the variance is one ``vecdot`` per row
    and the centred rows are normalised in place. The backward pass takes
    every row reduction as a product with ``gamma``. The FLOP count is 7 per
    element, the rate the cost model uses; the per-row variance, epsilon and
    square root are not charged.
    """
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ValueError(
            f"layer_norm params {gamma.data.shape}, {beta.data.shape} do not fit "
            f"input {x.data.shape}"
        )
    # the sum and division of ndarray.mean, without its Python wrapper
    xhat = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.vecdot(xhat, xhat) / d + LAYER_NORM_EPS)[..., None]
    xhat *= inv
    data = xhat * gamma.data
    data += beta.data
    _count(_FLOPS_PER_ELEM["layer_norm"] * data.size)

    def bwd(g):
        g2, xhat2 = g.reshape(-1, d), xhat.reshape(-1, d)
        gx = g2 * xhat2
        d_gamma = gx.sum(axis=0)
        # row means of dxhat = g * gamma and of dxhat * xhat
        m1 = (g2 @ gamma.data / d)[:, None]
        m2 = (gx @ gamma.data / d)[:, None]
        np.multiply(xhat2, m2, out=gx)
        dx = g2 * gamma.data
        dx -= m1
        dx -= gx
        dx *= inv.reshape(-1, 1)
        return (dx.reshape(x.data.shape), d_gamma, g2.sum(axis=0))

    return _make(data, (x, gamma, beta), bwd)


def conv1d(x, filters, bias, window: int) -> Tensor:
    """Width-(2w+1) 1-D convolution over each sequence of a (B, L, d) stack,
    stride 1.

    Zero-pads ``window`` positions on each side so the output keeps length L.
    Row j of a sequence's output is ``filters @ concat(x[j-w : j+w]) + bias``,
    with no activation: callers apply their own nonlinearity. Sequences of
    the stack are convolved independently.

    Computed tap by tap: one product projects every row through every tap's
    (N_f, d) block of ``filters``, and each output row adds the projections
    of its in-range neighbours. Backward shift-adds the input gradient the
    same way and takes each tap's filter gradient as one product over the
    flattened batch.
    """
    if x.data.ndim != 3:
        raise ValueError(f"conv1d expects a (B, L, d) input, got {x.data.shape}")
    xd = x.data
    B, L, d = xd.shape
    w = int(window)
    if w < 1:
        raise ValueError(f"conv1d window must be >= 1, got {w}")
    span = 2 * w + 1
    nf = filters.data.shape[0]
    if filters.data.shape != (nf, span * d):
        raise ValueError(
            f"conv1d filters shape {filters.data.shape} incompatible with "
            f"window {w} and input {x.data.shape}"
        )
    if bias.data.shape != (nf,):
        raise ValueError(f"conv1d bias shape {bias.data.shape}, expected ({nf},)")

    # (tap i, lo, hi, s): output rows lo..hi-1 read input rows lo+s..hi+s-1;
    # with L < 2w+1 an outer tap may have no row in range
    taps = []
    for i in range(span):
        s = i - w
        lo, hi = max(0, -s), min(L, L - s)
        if lo < hi:
            taps.append((i, lo, hi, s))
    # proj[..., i, :] = x @ W_i.T with W_i = filters[:, i*d:(i+1)*d]
    w_taps = filters.data.reshape(nf, span, d).transpose(2, 1, 0).reshape(d, span * nf)
    proj = (xd @ w_taps).reshape(B, L, span, nf)
    out = proj[:, :, w] + bias.data
    for i, lo, hi, s in taps:
        if s:
            out[:, lo:hi] += proj[:, lo + s:hi + s, i]
    _count(2 * B * L * nf * span * d + B * L * nf)

    def bwd(g3):
        gx = g3 @ filters.data[:, w * d:(w + 1) * d]
        gf = np.zeros_like(filters.data)
        n = B * L
        g2, x2 = g3.reshape(n, nf), xd.reshape(n, d)
        for i, lo, hi, s in taps:
            if s:
                gx[:, lo + s:hi + s] += g3[:, lo:hi] @ filters.data[:, i * d:(i + 1) * d]
            # tap i pairs row t of the flattened batch with row t + s; the
            # pairs that straddle two sequences are taken back out
            block = g2[max(0, -s):n - max(0, s)].T @ x2[max(0, s):n + min(0, s)]
            if s > 0:
                block -= np.tensordot(g3[:-1, L - s:], xd[1:, :s], axes=([0, 1], [0, 1]))
            elif s < 0:
                block -= np.tensordot(g3[1:, :-s], xd[:-1, L + s:], axes=([0, 1], [0, 1]))
            gf[:, i * d:(i + 1) * d] = block
        gb = g3.sum(axis=(0, 1))
        return (gx, gf, gb)

    return _make(out, (x, filters, bias), bwd)


def lstm_last(seq, w_ih, w_hh, bias) -> Tensor:
    """Last hidden states (B, g) of a standard LSTM run over each sequence
    of a (B, N, in) stack: B independent chains of the same length. The
    rows of ``w_ih`` (4g, in), ``w_hh`` (4g, g) and ``bias`` (4g,) are the
    gates i, f, g, o.

    One tape node: the forward pass steps through plain arrays (the input
    projection of every step is one product up front, and each step's gate
    rows are updated in place) and the backward pass is hand-written
    backpropagation through time. The FLOP count is that of the cell written
    out op by op: per step and chain, two gate products, two adds, three
    sigmoids, two tanhs, two products and an add.
    """
    if seq.data.ndim != 3 or seq.data.shape[1] < 1:
        raise ValueError(f"lstm_last expects a non-empty (B, N, in) stack, got {seq.data.shape}")
    x = seq.data
    B, n_steps, in_dim = x.shape
    g = w_hh.data.shape[-1]
    shapes = (w_ih.data.shape, w_hh.data.shape, bias.data.shape)
    if shapes != ((4 * g, in_dim), (4 * g, g), (4 * g,)):
        raise ValueError(f"lstm_last weight shapes {shapes} are not (4g, {in_dim}), (4g, g), (4g,)")
    x_proj = x @ w_ih.data.T                                  # (B, N, 4g)
    w_hh_t = w_hh.data.T
    h = np.zeros((B, g))
    c = np.zeros((B, g))
    # per step: input h, input c, the sigmoid of every gate row (the i, f
    # and o blocks are used), c_hat and tanh(c), for backward
    hs, cs, sigs, c_hats, tanh_cs = [], [], [], [], []
    for x_t in x_proj.transpose(1, 0, 2):
        hs.append(h)
        cs.append(c)
        z = h @ w_hh_t
        z += x_t
        z += bias.data
        c_hat = np.tanh(z[:, 2 * g:3 * g])
        np.negative(z, z)                                     # z = 1 / (1 + exp(-z))
        np.exp(z, z)
        z += 1.0
        np.divide(1.0, z, z)
        c = z[:, g:2 * g] * c
        c += z[:, 0:g] * c_hat
        tanh_c = np.tanh(c)
        h = z[:, 3 * g:4 * g] * tanh_c
        sigs.append(z)
        c_hats.append(c_hat)
        tanh_cs.append(tanh_c)
    _count(n_steps * B * (8 * g * (in_dim + g) + 32 * g))

    def bwd(dh):
        dc = np.zeros((B, g))
        dz = np.empty((B, n_steps, 4 * g))
        for t in reversed(range(n_steps)):
            sig, c_hat, tanh_c = sigs[t], c_hats[t], tanh_cs[t]
            i_g, f_g, o_g = sig[:, 0:g], sig[:, g:2 * g], sig[:, 3 * g:4 * g]
            dc = dc + dh * o_g * (1.0 - tanh_c * tanh_c)
            dz[:, t, 0:g] = dc * c_hat * i_g * (1.0 - i_g)
            dz[:, t, g:2 * g] = dc * cs[t] * f_g * (1.0 - f_g)
            dz[:, t, 2 * g:3 * g] = dc * i_g * (1.0 - c_hat * c_hat)
            dz[:, t, 3 * g:4 * g] = dh * tanh_c * o_g * (1.0 - o_g)
            dc = dc * f_g
            dh = dz[:, t] @ w_hh.data
        h_in = np.stack(hs, axis=1)                           # (B, N, g)
        dx = dz @ w_ih.data
        d_ih = np.tensordot(dz, x, axes=([0, 1], [0, 1]))
        d_hh = np.tensordot(dz, h_in, axes=([0, 1], [0, 1]))
        d_b = dz.sum(axis=(0, 1))
        return (dx, d_ih, d_hh, d_b)

    return _make(h, (seq, w_ih, w_hh, bias), bwd)


def attention(x, w_qkv, b_qkv, wo, bo, heads: int) -> Tensor:
    """Multi-head scaled dot-product self attention over (B, n, d).

    ``w_qkv`` (d, 3d) and ``b_qkv`` (3d,) hold the query, key and value
    projections side by side, in that order, so one product projects x to
    all three. Sequences of the stack never attend to each other, every
    head's scores and context are batched products over (B, heads), and the
    heads' context goes through the output projection ``wo`` (d, d), ``bo``
    (d,).

    One tape node with a hand-written backward. The FLOP count is that of
    the op-by-op form: four projections, four bias adds, two score/value
    products, the score scaling and the softmax.
    """
    if x.data.ndim != 3:
        raise ValueError(f"attention expects a (B, n, d) input, got {x.data.shape}")
    B, n, d = x.data.shape
    if d % heads:
        raise ValueError(f"model dim {d} not divisible by {heads} heads")
    for t, shape in ((w_qkv, (d, 3 * d)), (b_qkv, (3 * d,)), (wo, (d, d)), (bo, (d,))):
        if t.data.shape != shape:
            raise ValueError(f"attention weight shape {t.data.shape} does not fit d={d}")
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    x2 = x.data.reshape(B * n, d)
    qkv = x2 @ w_qkv.data
    qkv += b_qkv.data
    # (3, B, heads, n, dh) views of the one projection
    q, k, v = qkv.reshape(B, n, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    alpha = q @ k.swapaxes(-1, -2)
    alpha *= scale
    alpha -= alpha.max(axis=-1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=-1, keepdims=True)
    ctx = (alpha @ v).transpose(0, 2, 1, 3).reshape(B * n, d)
    out = ctx @ wo.data
    out += bo.data
    _count(B * (8 * n * d * d + 4 * n * n * d + 6 * heads * n * n + 4 * n * d))

    def bwd(g):
        g2 = g.reshape(B * n, d)
        d_wo = ctx.T @ g2
        d_bo = g2.sum(axis=0)
        d_ctx = (g2 @ wo.data.T).reshape(B, n, heads, dh).transpose(0, 2, 1, 3)
        d_qkv = np.empty((B, n, 3, heads, dh))
        dq, dk, dv = d_qkv.transpose(2, 0, 3, 1, 4)
        dv[...] = alpha.swapaxes(-1, -2) @ d_ctx
        d_s = d_ctx @ v.swapaxes(-1, -2)
        d_s -= np.vecdot(d_s, alpha)[..., None]
        d_s *= alpha
        d_s *= scale
        dq[...] = d_s @ k
        dk[...] = d_s.swapaxes(-1, -2) @ q
        d_qkv = d_qkv.reshape(B * n, 3 * d)
        dx = (d_qkv @ w_qkv.data.T).reshape(B, n, d)
        return (dx, x2.T @ d_qkv, d_qkv.sum(axis=0), d_wo, d_bo)

    return _make(out.reshape(B, n, d), (x, w_qkv, b_qkv, wo, bo), bwd)


def feed_forward(x, w1, b1, w2, b2) -> Tensor:
    """Position-wise ``relu(x @ w1 + b1) @ w2 + b2`` over the last axis of x.

    One tape node: every leading axis is flattened into rows, so forward and
    backward are 2-D products. The FLOP count is that of the op-by-op form:
    two products, two bias adds and the relu.
    """
    d, hidden = w1.data.shape
    d_out = w2.data.shape[-1]
    if x.data.shape[-1] != d or w2.data.shape != (hidden, d_out) \
            or b1.data.shape != (hidden,) or b2.data.shape != (d_out,):
        raise ValueError(
            f"feed_forward shapes do not fit: x {x.data.shape}, w1 {w1.data.shape}, "
            f"b1 {b1.data.shape}, w2 {w2.data.shape}, b2 {b2.data.shape}"
        )
    lead = x.data.shape[:-1]
    x2 = x.data.reshape(-1, d)
    h = x2 @ w1.data
    h += b1.data
    np.maximum(h, 0.0, out=h)
    out = h @ w2.data
    out += b2.data
    rows = x2.shape[0]
    _count(rows * (2 * d * hidden + 2 * hidden * d_out + 2 * hidden + d_out))

    def bwd(g):
        g2 = g.reshape(rows, d_out)
        d_w2 = h.T @ g2
        d_h = g2 @ w2.data.T
        d_h *= h > 0.0
        d_w1 = x2.T @ d_h
        dx = (d_h @ w1.data.T).reshape(x.data.shape)
        return (dx, d_w1, d_h.sum(axis=0), d_w2, g2.sum(axis=0))

    return _make(out.reshape(*lead, d_out), (x, w1, b1, w2, b2), bwd)


def attention_pool(x, query) -> Tensor:
    """Each sequence of a (G, n, d) stack pooled by its rows' softmax
    attention weights against ``query`` (d,): the (G, d) result is, per
    sequence, the softmax of ``x @ query`` over n times the rows.

    One tape node with a hand-written backward. The FLOP count is that of the
    composed form: the score product, the softmax and the weighted sum.
    """
    xd = x.data
    if xd.ndim != 3 or query.data.shape != xd.shape[-1:]:
        raise ValueError(
            f"attention_pool expects a (G, n, d) stack and a (d,) query, "
            f"got {xd.shape} and {query.data.shape}"
        )
    logits = xd @ query.data
    logits -= logits.max(axis=-1, keepdims=True)
    alpha = np.exp(logits, out=logits)
    alpha /= alpha.sum(axis=-1, keepdims=True)
    data = (alpha[:, None, :] @ xd)[:, 0, :]
    _count(alpha.size * (4 * xd.shape[-1] + _FLOPS_PER_ELEM["softmax"]))

    def bwd(g):
        d_alpha = (xd @ g[:, :, None])[..., 0]
        d_logits = d_alpha - np.vecdot(d_alpha, alpha)[..., None]
        d_logits *= alpha
        # dx = alpha (x) g + d_logits (x) query, as one (n, 2) @ (2, d) product
        left = np.stack([alpha, d_logits], axis=-1)
        right = np.stack([g, np.broadcast_to(query.data, g.shape)], axis=-2)
        dx = left @ right
        d_query = np.tensordot(d_logits, xd, axes=2)
        return (dx, d_query)

    return _make(data, (x, query), bwd)


def cosine(a, b) -> Tensor:
    """Cosine similarity of each row of a (G, L, f) stack with its stack's
    one (G, 1, f) row, as a (G, L) score: the gate's context rows against
    their history's interest vector. Squared norms are clamped at
    ``COSINE_EPS ** 2``, so a zero row scores 0 and passes no gradient
    through its norm.

    One tape node with a hand-written backward. The FLOP count is that of
    the composed form: the products and sums of the numerator and of both
    squared norms, both clamps and square roots, and the product and
    quotient of the last step.
    """
    ad, bd = a.data, b.data
    if ad.ndim != 3 or bd.shape != (ad.shape[0], 1, ad.shape[2]):
        raise ValueError(
            f"cosine expects a (G, L, f) stack and its (G, 1, f) rows, got {ad.shape} and {bd.shape}"
        )
    num = np.vecdot(ad, bd)
    sq_a, sq_b = np.vecdot(ad, ad), np.vecdot(bd, bd)
    lo = COSINE_EPS * COSINE_EPS
    na = np.sqrt(np.maximum(sq_a, lo))
    nb = np.sqrt(np.maximum(sq_b, lo))
    denom = na * nb
    data = num / denom
    _count(2 * num.size * ad.shape[-1] + 2 * (ad.size + bd.size)
           + 5 * (sq_a.size + sq_b.size) + 2 * num.size)

    def bwd(g):
        # d cos / d a = b / (|a| |b|) - cos * a / |a|^2 where the clamp is open
        w, gc = g / denom, g * data
        da = w[..., None] * bd
        da -= (gc * (sq_a > lo) / (na * na))[..., None] * ad
        # each stack's one row takes the sum over its L rows as one product
        db = w[:, None, :] @ ad
        db -= (gc.sum(axis=-1, keepdims=True) * (sq_b > lo) / (nb * nb))[..., None] * bd
        return (da, db)

    return _make(data, (a, b), bwd)


# ---------------------------------------------------------------------------
# indexing / shaping
# ---------------------------------------------------------------------------

def _in_order(idx: np.ndarray, n: int) -> bool:
    """Whether an index array reads 0, 1, ..., n - 1, each once and in order."""
    return idx.size == n and bool((idx.ravel() == np.arange(n)).all())


def gather_rows(x, indices) -> Tensor:
    """Select leading-axis entries of x (any index shape); backward
    scatter-adds duplicate picks into the same source row.

    Indices must lie in ``[0, len(x))``; a negative or out-of-range index
    raises ``ValueError``. An index that picks every row once, in order,
    records no gather: a 1-D one returns ``x`` itself and any other shape
    returns ``x`` reshaped to ``indices.shape + x.shape[1:]``. Otherwise the
    backward pass is one ``bincount`` over the flattened
    ``row * width + column`` positions, which adds the picks of a row in
    index order, as ``np.add.at`` does.
    """
    idx = np.asarray(indices, dtype=np.intp)
    rows = len(x.data)
    # an identity index is in range, so it skips the range check
    if rows and _in_order(idx, rows):
        return x if idx.ndim == 1 else reshape(x, idx.shape + x.data.shape[1:])
    # one reduction: as unsigned, a negative index reads as out of range
    if idx.size and np.maximum.reduce(idx.view(np.uintp), axis=None) >= rows:
        raise ValueError(
            f"gather_rows index out of range [0, {rows}): "
            f"min {idx.min()}, max {idx.max()}"
        )
    data = x.data[idx]

    def bwd(g):
        width = x.data[0].size if rows else 0
        flat = (idx.reshape(-1, 1) * width + np.arange(width)).ravel()
        gx = np.bincount(flat, weights=g.ravel(), minlength=x.data.size)
        return (gx.reshape(x.data.shape),)

    return _make(data, (x,), bwd)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate ``parts`` along the first axis; one part comes back as it
    is."""
    if len(parts) == 1:
        return parts[0]
    data = np.concatenate([p.data for p in parts])
    offsets = np.cumsum([0] + [len(p.data) for p in parts])

    def bwd(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _make(data, tuple(parts), bwd)


def by_length(starts, lengths) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Ragged spans bucketed by length, the inverse of :func:`assemble_rows`:
    span i covers ``lengths[i]`` entries of a flat array from ``starts[i]``,
    and for each distinct length L, ascending, the result holds ``(L,
    members, positions)``, the ascending indices of the G spans of that
    length and their (G, L) positions in the flat array."""
    starts = np.asarray(starts, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    out = []
    for L in sorted(set(lengths.tolist())):
        members = (lengths == L).nonzero()[0]
        out.append((L, members, starts[members, None] + np.arange(L)))
    return out


def assemble_rows(chunks: Sequence[Tensor], order) -> Tensor:
    """Concatenate row chunks and permute rows back to their global order.

    ``order[r]`` is the global index of concatenated row r. One chunk in
    global order comes back as it is: no tape node, and no sort.
    """
    order = np.asarray(order, dtype=np.intp)
    if len(chunks) == 1 and _in_order(order, len(order)):
        return chunks[0]
    return gather_rows(concat_rows(chunks), np.argsort(order))


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    data = x.data[sl].copy()

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[sl] = g
        return (gx,)

    return _make(data, (x,), bwd)


def reshape(x, shape) -> Tensor:
    data = x.data.reshape(shape)
    return _make(data, (x,), lambda g: (g.reshape(x.data.shape),))


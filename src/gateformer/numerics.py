"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Everything runs in 64-bit floats: the models here are desk-scale, and
determinism plus tight finite-difference agreement matter more than speed.
Gradients are recorded define-by-run on an explicit :class:`Tape`:

    with Tape() as tape:
        y = matmul(w, x)
        loss = vsum(y * y)
    backward(tape, loss)        # w.grad now holds dloss/dw

A tape is single-threaded; independent samples may each run their own tape
concurrently. ``backward`` walks the tape once, in reverse recording order,
so gradient accumulation order is deterministic and runs are bit-reproducible
for a fixed seed. Repeated ``backward`` calls without ``zero_grad`` add
another full dloss/dtensor into ``.grad``.

Op outputs may share storage with their inputs (reshape, transpose); treat
tensor ``.data`` as read-only once it has entered an op. Gradient arrays are
only ever replaced, never mutated in place, so aliasing between them is safe.

Most ops are one numpy expression each. The recurring pieces of the model
are kernels written out by hand, each one tape node with a hand-written
backward: :func:`lstm_last` runs the whole recurrence with backpropagation
through time, :func:`conv1d` projects each tap once and shift-adds the
projections instead of building a window buffer, :func:`attention` makes
one q/k/v projection and runs every head in batched products,
:func:`feed_forward` works on 2-D reshaped products, :func:`layer_norm`
normalises in place, :func:`attention_pool` pools rows by their softmax
weights against a query, and :func:`cosine` scores rows against rows with
broadcasting. Each reports exactly the FLOPs of the op-by-op form it
replaces (layer norm keeps its 7 per element), so the analytic cost model
and the counter agree. :func:`gather_rows` scatters its gradient back with
one ``bincount``, which adds repeated picks in the order ``np.add.at``
would.

A thread-local FLOP counter (:func:`count_flops`) can be armed around any
forward pass; every op then reports its cost as multiply-adds x2 plus fixed
per-element constants for the transcendental ops (see ``_FLOPS_PER_ELEM``).
:func:`recording` tells whether a tape is active on the calling thread, and
:func:`fingerprint` hashes a set of named tensors, for caches of values that
depend on them.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "recording",
    "fingerprint",
    "tensor",
    "constant",
    "backward",
    "matmul",
    "softmax",
    "conv1d",
    "LSTMParams",
    "lstm_last",
    "attention",
    "feed_forward",
    "attention_pool",
    "cosine",
    "relu",
    "sigmoid",
    "tanh",
    "exp",
    "log",
    "sqrt",
    "clamp_min",
    "vsum",
    "mean",
    "dot",
    "logsumexp",
    "layer_norm",
    "gather_rows",
    "concat_rows",
    "assemble_rows",
    "narrow",
    "reshape",
    "transpose",
    "transpose2d",
    "count_flops",
    "FlopCounter",
]

_STATE = threading.local()

# Fixed per-element costs for non-multiply-add work; the analytic cost model
# in the efficiency module uses the same table.
_FLOPS_PER_ELEM = {
    "elementwise": 1,
    "transcendental": 4,  # exp, log, sqrt, sigmoid, tanh
    "softmax": 5,
    "layer_norm": 7,
}


def _tape() -> "Tape | None":
    return getattr(_STATE, "tape", None)


def recording() -> bool:
    """True while a :class:`Tape` is active on the calling thread."""
    return _tape() is not None


def _count(n: int) -> None:
    c = getattr(_STATE, "flops", None)
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
        self._prev = getattr(_STATE, "flops", None)
        c = FlopCounter()
        _STATE.flops = c
        return c

    def __exit__(self, *exc) -> None:
        _STATE.flops = self._prev


class Tensor:
    """A shaped float64 array with an optional gradient slot.

    ``grad`` is populated by :func:`backward` for every tensor that had
    ``requires_grad`` when the tape recorded it. Tensors are value-like:
    ops never mutate ``data`` (the optimizer, which owns the parameters,
    is the one exception).
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        self.data = data
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; all dispatch to the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def tensor(data, requires_grad: bool = False) -> Tensor:
    arr = np.asarray(data, dtype=np.float64)
    return Tensor(arr, requires_grad=requires_grad)


def constant(data) -> Tensor:
    return tensor(data, requires_grad=False)


def fingerprint(header: str, named: dict[str, "Tensor"]) -> str:
    """sha256 over ``header`` and each named tensor's name, shape and float64
    bytes, by sorted name. It reads the arrays afresh on every call, so it
    changes with any edit to them, in place or not."""
    digest = hashlib.sha256(header.encode("utf-8"))
    for name in sorted(named):
        arr = np.ascontiguousarray(named[name].data, dtype=np.float64)
        digest.update(f";{name}{arr.shape}".encode("utf-8"))
        digest.update(arr)
    return digest.hexdigest()


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return tensor(x)


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
        self._prev = getattr(_STATE, "tape", None)
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
    """Accumulate dloss/dt into ``t.grad`` for every recorded tensor.

    ``loss`` must be a scalar produced on ``tape``. Adjoints are assembled
    in a side table and only ever replaced (never mutated in place), so a
    returned gradient may safely alias op output storage.
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
        if node.out.requires_grad:
            node.out.grad = g if node.out.grad is None else node.out.grad + g
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


def _sum_rows_to(coef: np.ndarray, rows: np.ndarray, shape: tuple) -> np.ndarray:
    """``coef[..., None] * rows`` summed down to ``shape``. When the sum runs
    over the rows' own axis it is one product, with no full-size temporary."""
    if rows.ndim >= 2 and rows.shape[-2] > 1 and (len(shape) < 2 or shape[-2] == 1):
        return _unbroadcast(coef[..., None, :] @ rows, shape)
    return _unbroadcast(coef[..., None] * rows, shape)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data
    _count(data.size)
    return _make(
        data, (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data - b.data
    _count(data.size)
    return _make(
        data, (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data
    _count(data.size)
    return _make(
        data, (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data / b.data
    _count(data.size)
    return _make(
        data, (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        ),
    )


def relu(x) -> Tensor:
    x = _as_tensor(x)
    data = np.maximum(x.data, 0.0)
    _count(data.size)
    return _make(data, (x,), lambda g: (g * (x.data > 0.0),))


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    data = 1.0 / (1.0 + np.exp(-x.data))
    _count(_FLOPS_PER_ELEM["transcendental"] * data.size)
    return _make(data, (x,), lambda g: (g * data * (1.0 - data),))


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    data = np.tanh(x.data)
    _count(_FLOPS_PER_ELEM["transcendental"] * data.size)
    return _make(data, (x,), lambda g: (g * (1.0 - data * data),))


def exp(x) -> Tensor:
    x = _as_tensor(x)
    data = np.exp(x.data)
    _count(_FLOPS_PER_ELEM["transcendental"] * data.size)
    return _make(data, (x,), lambda g: (g * data,))


def log(x) -> Tensor:
    x = _as_tensor(x)
    data = np.log(x.data)
    _count(_FLOPS_PER_ELEM["transcendental"] * data.size)
    return _make(data, (x,), lambda g: (g / x.data,))


def sqrt(x) -> Tensor:
    x = _as_tensor(x)
    data = np.sqrt(x.data)
    _count(_FLOPS_PER_ELEM["transcendental"] * data.size)
    return _make(data, (x,), lambda g: (g / (2.0 * data),))


def clamp_min(x, lo: float) -> Tensor:
    x = _as_tensor(x)
    data = np.maximum(x.data, lo)
    _count(data.size)
    return _make(data, (x,), lambda g: (g * (x.data > lo),))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def vsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)
    _count(x.data.size)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape),)
        gk = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gk, x.data.shape),)

    return _make(data, (x,), bwd)


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    n = x.data.size if axis is None else x.data.shape[axis]
    data = x.data.mean(axis=axis, keepdims=keepdims)
    _count(x.data.size)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g / n, x.data.shape),)
        gk = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gk / n, x.data.shape),)

    return _make(data, (x,), bwd)


def dot(a, b) -> Tensor:
    """Inner product of two vectors; returns a scalar tensor."""
    return matmul(a, b)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix/vector product with numpy matmul semantics.

    Supported operand ranks: 1-D/2-D in any combination, stacked (>=3-D)
    against a shared 2-D or 1-D right operand, and equal-leading-shape
    stacked batches on both sides.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0:
        raise ValueError(f"matmul needs array operands, got {ad.shape} @ {bd.shape}")
    contract = ad.shape[-1]
    if bd.ndim >= 2:
        if bd.shape[-2] != contract:
            raise ValueError(f"matmul dimension mismatch: {ad.shape} @ {bd.shape}")
    elif bd.shape[0] != contract:
        raise ValueError(f"matmul dimension mismatch: {ad.shape} @ {bd.shape}")

    if ad.ndim <= 2 and bd.ndim <= 2:
        data = ad @ bd
        _count(2 * data.size * contract if data.ndim else 2 * contract)
        if ad.ndim == 2 and bd.ndim == 2:
            bwd = lambda g: (g @ bd.T, ad.T @ g)
        elif ad.ndim == 1 and bd.ndim == 2:
            bwd = lambda g: (bd @ g, np.outer(ad, g))
        elif ad.ndim == 2 and bd.ndim == 1:
            bwd = lambda g: (np.outer(g, bd), ad.T @ g)
        else:  # vector dot
            bwd = lambda g: (g * bd, g * ad)
        return _make(data, (a, b), bwd)

    if ad.ndim >= 3 and bd.ndim == 1:
        # (..., n, k) @ (k,) -> (..., n)
        data = ad @ bd
        _count(2 * data.size * contract)
        lead = tuple(range(ad.ndim - 1))
        bwd = lambda g: (g[..., None] * bd, (g[..., None] * ad).sum(axis=lead))
        return _make(data, (a, b), bwd)

    if ad.ndim >= 3 and bd.ndim == 2:
        # (..., n, k) @ (k, m) -> (..., n, m)
        data = ad @ bd
        _count(2 * data.size * contract)
        axes = tuple(range(ad.ndim - 1))
        bwd = lambda g: (g @ bd.T, np.tensordot(ad, g, axes=(axes, axes)))
        return _make(data, (a, b), bwd)

    if ad.ndim == bd.ndim and ad.shape[:-2] == bd.shape[:-2]:
        # stacked batch on both sides
        data = ad @ bd
        _count(2 * data.size * contract)
        bwd = lambda g: (g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g)
        return _make(data, (a, b), bwd)

    raise ValueError(f"unsupported matmul operand shapes: {ad.shape} @ {bd.shape}")


def softmax(x, axis: int = -1) -> Tensor:
    """Probabilities along ``axis``; max-subtracted for stability."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)
    _count(_FLOPS_PER_ELEM["softmax"] * data.size)

    def bwd(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        return ((g - inner) * data,)

    return _make(data, (x,), bwd)


def logsumexp(x, axis: int | None = None) -> Tensor:
    """Stable log(sum(exp(x))); over the whole vector or along ``axis``."""
    x = _as_tensor(x)
    if axis is None:
        if x.data.ndim != 1:
            raise ValueError(f"logsumexp expects a vector, got shape {x.data.shape}")
        m = x.data.max()
        e = np.exp(x.data - m)
        s = e.sum()
        data = np.asarray(m + np.log(s))
        _count(_FLOPS_PER_ELEM["softmax"] * x.data.size)
        return _make(data, (x,), lambda g: (g * (e / s),))
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=axis, keepdims=True)
    data = (m + np.log(s)).squeeze(axis)
    _count(_FLOPS_PER_ELEM["softmax"] * x.data.size)

    def bwd(g):
        return (np.expand_dims(g, axis) * (e / s),)

    return _make(data, (x,), bwd)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Row-wise layer normalization over the last axis, with affine params.

    One tape node. The forward pass keeps two full-size arrays, the
    normalised rows and the output: the variance is one ``vecdot`` per row
    and the centred rows are normalised in place. The backward pass takes
    every row reduction as a product with ``gamma``. The FLOP count is 7 per
    element, the rate the cost model uses; the per-row variance, epsilon and
    square root are not charged.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ValueError(
            f"layer_norm params {gamma.data.shape}, {beta.data.shape} do not fit "
            f"input {x.data.shape}"
        )
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.vecdot(xhat, xhat) / d + eps)[..., None]
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
    """Width-(2w+1) 1-D convolution over a (L, d) sequence, stride 1.

    Zero-pads ``window`` positions on each side so the output keeps length L.
    Row j of the output is ``filters @ concat(x[j-w : j+w]) + bias``, with no
    activation: callers apply their own nonlinearity. A stacked (B, L, d)
    input convolves each sequence independently.

    Computed tap by tap: one product projects every row through every tap's
    (N_f, d) block of ``filters``, and each output row adds the projections
    of its in-range neighbours. Backward shift-adds the input gradient the
    same way and takes each tap's filter gradient as one product over the
    flattened batch.
    """
    x, filters, bias = _as_tensor(x), _as_tensor(filters), _as_tensor(bias)
    if x.data.ndim not in (2, 3):
        raise ValueError(f"conv1d expects (L, d) or (B, L, d) input, got {x.data.shape}")
    batched = x.data.ndim == 3
    xd = x.data if batched else x.data[None]
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
    data = out if batched else out[0]
    _count(2 * B * L * nf * span * d + B * L * nf)

    def bwd(g):
        g3 = g if batched else g[None]
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
        return (gx if batched else gx[0], gf, gb)

    return _make(data, (x, filters, bias), bwd)


class LSTMParams:
    """Single-layer LSTM weights; gate order along rows is i, f, g, o."""

    def __init__(self, w_ih: Tensor, w_hh: Tensor, bias: Tensor):
        four_g, hidden = w_hh.data.shape
        if four_g != 4 * hidden:
            raise ValueError(f"w_hh shape {w_hh.data.shape} is not (4g, g)")
        if w_ih.data.shape[0] != four_g or bias.data.shape != (four_g,):
            raise ValueError("LSTM parameter shapes are inconsistent")
        self.w_ih = w_ih
        self.w_hh = w_hh
        self.bias = bias

    @property
    def hidden(self) -> int:
        return self.w_hh.data.shape[1]

    @property
    def input_dim(self) -> int:
        return self.w_ih.data.shape[1]

    def tensors(self) -> tuple:
        return (self.w_ih, self.w_hh, self.bias)


def lstm_last(seq, params: LSTMParams) -> Tensor:
    """Last hidden state of a standard LSTM run over the rows of (N, in).

    A stacked (B, N, in) input runs B independent chains of the same length
    and returns (B, g).

    One tape node: the forward pass steps through plain arrays (the input
    projection of every step is one product up front) and the backward pass
    is hand-written backpropagation through time. The FLOP count is that of
    the cell written out op by op: per step and chain, two gate products,
    two adds, three sigmoids, two tanhs, two products and an add.
    """
    seq = _as_tensor(seq)
    if seq.data.ndim not in (2, 3) or seq.data.shape[-2] < 1:
        raise ValueError(
            f"lstm_last expects a non-empty (N, in) or (B, N, in) sequence, "
            f"got {seq.data.shape}"
        )
    batched = seq.data.ndim == 3
    x = seq.data if batched else seq.data[None]
    B, n_steps, in_dim = x.shape
    g = params.hidden
    w_ih, w_hh, bias = params.tensors()
    x_proj = x @ w_ih.data.T                                  # (B, N, 4g)
    h = np.zeros((B, g))
    c = np.zeros((B, g))
    # per step: input h, input c, and the cell's gate values, for backward
    hs, cs, gates, tanh_cs = [], [], [], []
    for t in range(n_steps):
        hs.append(h)
        cs.append(c)
        z = x_proj[:, t] + h @ w_hh.data.T + bias.data
        sig = 1.0 / (1.0 + np.exp(-z))                       # i, f, o blocks used
        c_hat = np.tanh(z[:, 2 * g:3 * g])
        i_g, f_g, o_g = sig[:, 0:g], sig[:, g:2 * g], sig[:, 3 * g:4 * g]
        c = f_g * c + i_g * c_hat
        tanh_c = np.tanh(c)
        h = o_g * tanh_c
        gates.append((i_g, f_g, c_hat, o_g))
        tanh_cs.append(tanh_c)
    _count(n_steps * B * (8 * g * (in_dim + g) + 32 * g))

    def bwd(grad):
        dh = grad if batched else grad[None]
        dc = np.zeros((B, g))
        dz = np.empty((B, n_steps, 4 * g))
        for t in reversed(range(n_steps)):
            i_g, f_g, c_hat, o_g = gates[t]
            tanh_c = tanh_cs[t]
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
        return (dx if batched else dx[0], d_ih, d_hh, d_b)

    return _make(h if batched else h[0], (seq, w_ih, w_hh, bias), bwd)


def attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads: int,
              collect: list | None = None) -> Tensor:
    """Multi-head scaled dot-product self attention over (B, n, d).

    Sequences of the stack never attend to each other. One product projects
    x to queries, keys and values together, every head's scores and context
    are batched products over (B, heads), and the heads' context goes
    through the output projection. ``collect``, if given, receives the
    attention maps as one constant (B, heads, n, n) tensor.

    One tape node with a hand-written backward. The FLOP count is that of
    the op-by-op form: four projections, four bias adds, two score/value
    products, the score scaling and the softmax.
    """
    x = _as_tensor(x)
    weights = [_as_tensor(t) for t in (wq, bq, wk, bk, wv, bv, wo, bo)]
    if x.data.ndim != 3:
        raise ValueError(f"attention expects a (B, n, d) input, got {x.data.shape}")
    B, n, d = x.data.shape
    if d % heads:
        raise ValueError(f"model dim {d} not divisible by {heads} heads")
    for i, t in enumerate(weights):
        if t.data.shape != ((d, d) if i % 2 == 0 else (d,)):
            raise ValueError(f"attention weight shape {t.data.shape} does not fit d={d}")
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    wq, bq, wk, bk, wv, bv, wo, bo = (t.data for t in weights)
    w_qkv = np.concatenate([wq, wk, wv], axis=1)                  # (d, 3d)
    x2 = x.data.reshape(B * n, d)
    qkv = x2 @ w_qkv
    qkv += np.concatenate([bq, bk, bv])
    # (3, B, heads, n, dh) views of the one projection
    q, k, v = qkv.reshape(B, n, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    alpha = q @ k.swapaxes(-1, -2)
    alpha *= scale
    alpha -= alpha.max(axis=-1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=-1, keepdims=True)
    ctx = (alpha @ v).transpose(0, 2, 1, 3).reshape(B * n, d)
    out = ctx @ wo
    out += bo
    _count(B * (8 * n * d * d + 4 * n * n * d + 6 * heads * n * n + 4 * n * d))
    if collect is not None:
        collect.append(constant(alpha))

    def bwd(g):
        g2 = g.reshape(B * n, d)
        d_wo = ctx.T @ g2
        d_bo = g2.sum(axis=0)
        d_ctx = (g2 @ wo.T).reshape(B, n, heads, dh).transpose(0, 2, 1, 3)
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
        dx = (d_qkv @ w_qkv.T).reshape(B, n, d)
        d_w = x2.T @ d_qkv
        d_b = d_qkv.sum(axis=0)
        return (dx, d_w[:, :d], d_b[:d], d_w[:, d:2 * d], d_b[d:2 * d],
                d_w[:, 2 * d:], d_b[2 * d:], d_wo, d_bo)

    return _make(out.reshape(B, n, d), (x, *weights), bwd)


def feed_forward(x, w1, b1, w2, b2) -> Tensor:
    """Position-wise ``relu(x @ w1 + b1) @ w2 + b2`` over the last axis of x.

    One tape node: every leading axis is flattened into rows, so forward and
    backward are 2-D products. The FLOP count is that of the op-by-op form:
    two products, two bias adds and the relu.
    """
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
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


def attention_pool(x, query, mask=None) -> Tensor:
    """Rows of x pooled by their softmax attention weights against ``query``.

    x is (..., n, d) and query (d,); the result is (..., d), the softmax of
    ``x @ query + mask`` over n times the rows. ``mask``, a constant additive
    (..., n) array or tensor, keeps rows out of the pooling with a large
    negative entry.

    One tape node with a hand-written backward. The FLOP count is that of the
    composed form: the score product, the mask add when there is a mask, the
    softmax and the weighted sum.
    """
    x, query = _as_tensor(x), _as_tensor(query)
    xd = x.data
    if xd.ndim < 2 or query.data.shape != xd.shape[-1:]:
        raise ValueError(
            f"attention_pool expects (..., n, d) rows and a (d,) query, "
            f"got {xd.shape} and {query.data.shape}"
        )
    logits = xd @ query.data
    if mask is not None:
        mask = _as_tensor(mask).data
        if mask.shape != logits.shape:
            raise ValueError(f"attention_pool mask shape {mask.shape}, expected {logits.shape}")
        logits += mask
    logits -= logits.max(axis=-1, keepdims=True)
    alpha = np.exp(logits, out=logits)
    alpha /= alpha.sum(axis=-1, keepdims=True)
    # a lone (n, d) sequence pools to an array of its own, not a view
    data = alpha @ xd if xd.ndim == 2 else (alpha[..., None, :] @ xd)[..., 0, :]
    _count(alpha.size * (4 * xd.shape[-1] + _FLOPS_PER_ELEM["softmax"]
                         + (mask is not None)))

    def bwd(g):
        d_alpha = (xd @ g[..., :, None])[..., 0]
        d_logits = d_alpha - np.vecdot(d_alpha, alpha)[..., None]
        d_logits *= alpha
        # dx = alpha (x) g + d_logits (x) query, as one (n, 2) @ (2, d) product
        left = np.stack([alpha, d_logits], axis=-1)
        right = np.stack([g, np.broadcast_to(query.data, g.shape)], axis=-2)
        dx = left @ right
        d_query = np.tensordot(d_logits, xd, axes=d_logits.ndim)
        return (dx, d_query)

    return _make(data, (x, query), bwd)


def cosine(a, b, eps: float = 1e-12) -> Tensor:
    """Cosine similarity along the last axis, broadcasting the leading axes.

    Two vectors give a scalar; (..., d) rows against (..., d) rows give the
    broadcast leading shape. Squared norms are clamped at ``eps ** 2``, so a
    zero row scores 0 and passes no gradient through its norm.

    One tape node with a hand-written backward. The FLOP count is that of
    the composed form: the products and sums of the numerator and of both
    squared norms, both clamps and square roots, and the product and
    quotient of the last step.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0 or ad.shape[-1] != bd.shape[-1]:
        raise ValueError(f"cosine needs rows of equal length, got {ad.shape} and {bd.shape}")
    num = np.vecdot(ad, bd)          # raises ValueError if the rows do not broadcast
    sq_a, sq_b = np.vecdot(ad, ad), np.vecdot(bd, bd)
    lo = eps * eps
    na = np.sqrt(np.maximum(sq_a, lo))
    nb = np.sqrt(np.maximum(sq_b, lo))
    denom = na * nb
    data = num / denom
    _count(2 * num.size * ad.shape[-1] + 2 * (ad.size + bd.size)
           + 5 * (sq_a.size + sq_b.size) + 2 * num.size)

    def bwd(g):
        # d cos / d a = b / (|a| |b|) - cos * a / |a|^2 where the clamp is open
        w, gc = g / denom, g * data
        da = _sum_rows_to(w, bd, ad.shape)
        da -= (_unbroadcast(gc, sq_a.shape) * (sq_a > lo) / (na * na))[..., None] * ad
        db = _sum_rows_to(w, ad, bd.shape)
        db -= (_unbroadcast(gc, sq_b.shape) * (sq_b > lo) / (nb * nb))[..., None] * bd
        return (da, db)

    return _make(data, (a, b), bwd)


# ---------------------------------------------------------------------------
# indexing / shaping
# ---------------------------------------------------------------------------

def gather_rows(x, indices) -> Tensor:
    """Select leading-axis entries of x (any index shape); backward
    scatter-adds duplicate picks into the same source row.

    Indices must lie in ``[0, len(x))``; a negative or out-of-range index
    raises ``ValueError``. The backward pass is one ``bincount`` over the
    flattened ``row * width + column`` positions, which adds the picks of a
    row in index order, as ``np.add.at`` does.
    """
    x = _as_tensor(x)
    idx = np.asarray(indices, dtype=np.intp)
    rows = x.data.shape[0] if x.data.ndim else 0
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
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


def concat_rows(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        sl = [slice(None)] * g.ndim
        grads = []
        for i in range(len(parts)):
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)])
        return tuple(grads)

    return _make(data, tuple(parts), bwd)


def assemble_rows(chunks: Sequence[Tensor], order) -> Tensor:
    """Concatenate row chunks and permute rows back to their global order.

    ``order[r]`` is the global index of concatenated row r. One chunk in
    global order comes back as it is, with no tape node.
    """
    stacked = chunks[0] if len(chunks) == 1 else concat_rows(chunks)
    order = np.asarray(order)
    if np.array_equal(order, np.arange(len(order))):
        return stacked
    return gather_rows(stacked, np.argsort(order))


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    x = _as_tensor(x)
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
    x = _as_tensor(x)
    data = x.data.reshape(shape)
    return _make(data, (x,), lambda g: (g.reshape(x.data.shape),))


def transpose2d(x) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ValueError(f"transpose2d expects a matrix, got shape {x.data.shape}")
    return _make(x.data.T, (x,), lambda g: (g.T,))


def transpose(x, axes: tuple) -> Tensor:
    """General axis permutation; backward applies the inverse permutation."""
    x = _as_tensor(x)
    inv = tuple(np.argsort(axes))
    return _make(x.data.transpose(axes), (x,), lambda g: (g.transpose(inv),))

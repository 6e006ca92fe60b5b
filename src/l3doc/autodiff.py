"""Dense float64 tensors with reverse-mode differentiation.

A minimal closure tape covering the operations the lifelong point-cloud
classifier composes its graphs from:

- ``relu(x, w, b)``: one dense layer, ``max(x @ w + b, 0)``, as a single
  node (the head's hidden layers);
- ``max_pool_points(x, ws, bs)``: the whole shared pointwise MLP fused with
  the max over the point axis.  It runs a few whole objects at a time
  through every layer and keeps, per output column, the maximum and the
  first point that attains it (PointNet's critical point), so no layer's
  (batch, n_pts, w) activation is built at once.  Only the critical
  points reach the gradient, so forward keeps their input and hidden rows
  alone, and backward runs the hidden layers over those rows.  A chunk's
  activations go to a module-level workspace that is reused across calls
  and never handed out (about 11.5 MB at the paper geometry, about 4 MB
  at the desk one), and backward walks forward's chunks, so neither pass
  holds more than one chunk's last-layer block at once;
- general algebra (``matmul``/``add``/``scale``, ``reshape``, ``sum_all``,
  ``stack_scalars``), numerically stable ``softmax`` and squared-L2
  penalties;
- the two kernel-reconstruction primitives (channel contraction and
  stride-1 transposed convolution, which reconstruction applies to an
  s-row grid of contracted knowledge rows; it computes only the cropped
  output, never the padded scatter buffer).

Both fused ops let NaN through, so a NaN activation reaches the loss check.
They keep the names of the ops they replace because the benchmark's
tracer (bench/tracing.py) wraps ops by name, so every node the package
builds stays traced.  ``mul``, ``log`` and ``mean`` are not called by the
package; the tracer still wraps them by name.

Graphs are implicit: every op returns a new :class:`Tensor`.  When an
operand needs gradient, the result holds its parents and a closure that
routes the upstream gradient to them, so the DAG is acyclic by
construction; a result over constants only holds neither, so evaluation
keeps no activation alive past the op that reads it.  Tensors built into
a graph, and the gradient arrays backward hands out, are treated as
immutable; leaves created with ``requires_grad=True`` are the trainable
parameters, each over its own copy of the data it was built from, and an
optimizer updates them in place.  :func:`gradients` hands the list it
returns the only reference to each parameter's gradient and resets the
parameters' ``grad`` to None, so no gradient outlives the step that
uses it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "parameter",
    "constant",
    "add",
    "mul",
    "scale",
    "matmul",
    "relu",
    "log",
    "mean",
    "sum_all",
    "reshape",
    "stack_scalars",
    "sq_l2_diff",
    "softmax",
    "channel_contract",
    "transposed_conv2d",
    "max_pool_points",
    "gradients",
]


# Activations of its widest layer that max_pool_points builds at once
# (8 MB): as many whole objects as fit, and never less than one object,
# whatever its size (one 1024-point object of the widest PointNet layer
# fills it).  Backward runs in the same chunks, and the chunk bounds the
# forward workspace below.
_POOL_CHUNK = 1 << 20

# max_pool_points' forward workspace: one flat float64 buffer per layer
# slot (each hidden layer's activations, then the last layer's (f, rows)
# product) for one chunk, kept across calls so that their pages stay
# mapped, and grown only when a call needs more room.  A view of it never
# leaves the op: the next call overwrites it.  Calls must not overlap, so
# the op is for one thread at a time (the package has no other).
_workspace: list[np.ndarray] = []


def _workspace_view(slot: int, rows: int, cols: int) -> np.ndarray:
    if slot == len(_workspace):
        _workspace.append(np.empty(0))
    if _workspace[slot].size < rows * cols:
        _workspace[slot] = np.empty(rows * cols)
    return _workspace[slot][:rows * cols].reshape(rows, cols)


def _join(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def _bad_shapes(op: str, *shapes) -> ShapeError:
    listed = " vs ".join(str(tuple(s)) for s in shapes)
    return ShapeError(f"{op}: incompatible shapes {listed}")


class Tensor:
    """Node in the implicit reverse-mode graph.

    Wraps a float64 ndarray.  ``grad`` is populated (as an ndarray of the
    same shape) by :meth:`backward` for every node on a path from a
    trainable leaf to the loss.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into ``grad`` over the whole graph.

        ``self`` must be scalar (shape () or size 1).  Gradients add up
        across multiple uses of the same node; call sites reset ``grad``
        to None between graphs (the trainer rebuilds its graph each step).
        """
        if self.data.size != 1:
            raise ShapeError(f"backward: loss must be scalar, got shape {self.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative post-order over nodes that can carry gradient; parents
    # always precede children in the returned list.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order


def _make(data: np.ndarray, parents: tuple[Tensor, ...], op: str, backward=None) -> Tensor:
    # A node no gradient flows through keeps no parents, so a graph over
    # constants frees each operand once nothing else holds it.
    out = Tensor(data)
    out._op = op
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise _bad_shapes("gradient", g.shape, t.data.shape)
    # Never in place: the first gradient may be an array another node holds.
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Reduce a broadcast gradient back to the operand's shape.
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


def parameter(data, rng: np.random.Generator | None = None, shape=None, std: float = 0.05) -> Tensor:
    """Trainable leaf over a float64 copy of ``data``, so an in-place update
    never writes into the caller's array (which may be read-only).  With
    ``rng`` and ``shape``, draws i.i.d. normal(0, std) instead."""
    if rng is not None:
        return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    try:
        out_data = a.data + b.data
    except ValueError:
        raise _bad_shapes("add", a.shape, b.shape) from None

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), "add", bw)


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    try:
        out_data = a.data * b.data
    except ValueError:
        raise _bad_shapes("mul", a.shape, b.shape) from None

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), "mul", bw)


def scale(a, c: float) -> Tensor:
    a = _lift(a)
    c = float(c)

    def bw(g):
        _accum(a, c * g)

    return _make(a.data * c, (a,), "scale", bw)


def matmul(a, b) -> Tensor:
    """``a @ b`` with a of shape (..., m, k) and b a (k, n) matrix."""
    a, b = _lift(a), _lift(b)
    if a.data.ndim < 2 or b.data.ndim != 2 or a.data.shape[-1] != b.data.shape[0]:
        raise _bad_shapes("matmul", a.shape, b.shape)
    out_data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.reshape(-1, a.data.shape[-1]).T @ g.reshape(-1, g.shape[-1]))

    return _make(out_data, (a, b), "matmul", bw)


def _dense_shapes(op: str, x: Tensor, w: Tensor, b: Tensor) -> None:
    if (x.data.ndim < 2 or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise _bad_shapes(op, x.shape, w.shape, b.shape)


def relu(x, w, b) -> Tensor:
    """One pointwise layer, ``max(x @ w + b, 0)``, as a single node.

    ``x`` is (..., k), ``w`` a (k, f) matrix and ``b`` an (f,) bias.  NaN
    propagates through the activation, so it reaches the loss check.
    """
    x, w, b = _lift(x), _lift(w), _lift(b)
    _dense_shapes("relu", x, w, b)
    out = x.data @ w.data
    out += b.data
    np.maximum(out, 0.0, out=out)

    def bw(g):
        gz = g * (out > 0.0)
        if x.requires_grad:
            _accum(x, gz @ w.data.T)
        _accum(w, x.data.reshape(-1, x.data.shape[-1]).T @ gz.reshape(-1, gz.shape[-1]))
        _accum(b, gz.sum(axis=tuple(range(gz.ndim - 1))))

    return _make(out, (x, w, b), "relu", bw)


def log(a) -> Tensor:
    a = _lift(a)

    def bw(g):
        _accum(a, g / a.data)

    return _make(np.log(a.data), (a,), "log", bw)


def mean(a) -> Tensor:
    a = _lift(a)
    n = a.data.size
    if n == 0:
        raise _bad_shapes("mean", a.shape)

    def bw(g):
        _accum(a, np.full_like(a.data, float(g) / n))

    return _make(np.asarray(a.data.mean()), (a,), "mean", bw)


def sum_all(a) -> Tensor:
    a = _lift(a)

    def bw(g):
        _accum(a, np.full_like(a.data, float(g)))

    return _make(np.asarray(a.data.sum()), (a,), "sum_all", bw)


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    try:
        out_data = a.data.reshape(shape)
    except ValueError:
        raise _bad_shapes("reshape", a.shape, shape) from None

    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    return _make(out_data, (a,), "reshape", bw)


def stack_scalars(items: Sequence) -> Tensor:
    """Stack scalar tensors into a length-k vector."""
    ts = [_lift(x) for x in items]
    if not ts:
        raise ShapeError("stack_scalars: empty input")
    for t in ts:
        if t.data.size != 1:
            raise _bad_shapes("stack_scalars", t.shape)
    out_data = np.array([float(t.data) for t in ts])

    def bw(g):
        for i, t in enumerate(ts):
            _accum(t, np.full_like(t.data, g[i]))

    return _make(out_data, tuple(ts), "stack_scalars", bw)


def sq_l2_diff(a, b) -> Tensor:
    """Sum of squared elementwise differences; shapes must match exactly."""
    a, b = _lift(a), _lift(b)
    if a.data.shape != b.data.shape:
        raise _bad_shapes("sq_l2_diff", a.shape, b.shape)
    d = a.data - b.data
    out_data = np.asarray((d * d).sum())

    def bw(g):
        # The difference is recomputed rather than kept: a gap penalty's
        # graph then holds no array of its operands' size.
        d = a.data - b.data
        if a.requires_grad:
            _accum(a, 2.0 * float(g) * d)
        if b.requires_grad:
            _accum(b, -2.0 * float(g) * d)

    return _make(out_data, (a, b), "sq_l2_diff", bw)


def softmax(a, axis: int = -1) -> Tensor:
    """Max-shifted softmax along ``axis``; outputs are positive and sum to 1."""
    a = _lift(a)
    if a.data.ndim == 0 or a.data.shape[axis] == 0:
        raise _bad_shapes("softmax", a.shape)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * p).sum(axis=axis, keepdims=True)
        _accum(a, p * (g - inner))

    return _make(p, (a,), "softmax", bw)


def channel_contract(c, d) -> Tensor:
    """Contract a (1,1,n) factor against a (n,a,b) block into (1,1,a,b).

    out[0,0,i,j] = sum_k c[0,0,k] * d[k,i,j]
    """
    c, d = _lift(c), _lift(d)
    if c.data.ndim != 3 or c.data.shape[:2] != (1, 1):
        raise _bad_shapes("channel_contract", c.shape, d.shape)
    if d.data.ndim != 3 or d.data.shape[0] != c.data.shape[2]:
        raise _bad_shapes("channel_contract", c.shape, d.shape)
    cv = c.data[0, 0]
    out_data = np.tensordot(cv, d.data, axes=(0, 0))[None, None]

    def bw(g):
        g2 = g[0, 0]
        if c.requires_grad:
            _accum(c, np.tensordot(d.data, g2, axes=([1, 2], [0, 1]))[None, None])
        if d.requires_grad:
            _accum(d, cv[:, None, None] * g2[None])

    return _make(out_data, (c, d), "channel_contract", bw)


def transposed_conv2d(x, k) -> Tensor:
    """Stride-1 transposed convolution, cropped back to the input grid.

    ``x`` is an (H, W, c_in) grid, ``k`` an (s, s, c_out, c_in) kernel.
    Only the top-left (H, W) block of the full (H+s-1, W+s-1, c_out)
    scatter-add is computed: tap (dy, dx) multiplies ``x[:H-dy, :W-dx]``
    and adds into ``out[dy:, dx:]``, and taps with dy >= H or dx >= W
    reach no output (their kernel gradient is zero):

        out[y, x, o] = sum_{dy,dx,i} x[y-dy, x-dx, i] * k[dy, dx, o, i]
    """
    x, k = _lift(x), _lift(k)
    if x.data.ndim != 3 or k.data.ndim != 4:
        raise _bad_shapes("transposed_conv2d", x.shape, k.shape)
    h, w, c_in = x.data.shape
    s0, s1, c_out, kc_in = k.data.shape
    if h < 1 or w < 1 or s0 < 1 or s0 != s1 or kc_in != c_in:
        raise _bad_shapes("transposed_conv2d", x.shape, k.shape)
    taps = [(dy, dx) for dy in range(min(s0, h)) for dx in range(min(s0, w))]
    out_data = np.zeros((h, w, c_out))
    for dy, dx in taps:
        win = x.data[:h - dy, :w - dx].reshape(-1, c_in)
        out_data[dy:, dx:] += (win @ k.data[dy, dx].T).reshape(h - dy, w - dx, c_out)

    def bw(g):
        gx = np.zeros_like(x.data)
        gk = np.zeros_like(k.data)
        for dy, dx in taps:
            gwin = g[dy:, dx:].reshape(-1, c_out)
            gx[:h - dy, :w - dx] += (gwin @ k.data[dy, dx]).reshape(h - dy, w - dx, c_in)
            gk[dy, dx] = gwin.T @ x.data[:h - dy, :w - dx].reshape(-1, c_in)
        _accum(x, gx)
        _accum(k, gk)

    return _make(out_data, (x, k), "transposed_conv2d", bw)


def max_pool_points(x, ws, bs) -> Tensor:
    """The whole shared pointwise MLP and the max over points, as one node.

    ``x`` is (n_pts, k) or (batch, n_pts, k); ``ws`` are the layers' (k, w1),
    (w1, w2), ... matrices and ``bs`` their biases.  The result, (f,) or
    (batch, f) for the last width f, is the ReLU MLP applied to every point
    and maximised over the point axis.  Whole objects run through every
    layer in chunks of at most ``_POOL_CHUNK`` activations of the widest
    layer (one object if it alone is larger), keeping each output column's
    maximum and the first point that attains it, so no layer's
    (batch, n_pts, w) activation is built for more than one chunk.  Each
    chunk's hidden activations and its (f, rows) last-layer product are
    written into the module's workspace, one buffer per layer slot, which
    grows to the largest chunk seen and is never stored in a tensor or a
    closure: what the graph keeps is copied out of it.  Its size is bounded
    by the chunk: about 11.5 MB kept at the paper geometry (1024 points,
    widths 3-64-64-128-128-1024), about 4 MB at the desk one.

    Each output column depends only on that point (PointNet's critical
    point), and every other point's row of every layer's gradient is zero.
    So when a gradient will flow, forward keeps the input and hidden rows
    of the critical points alone, and backward runs the hidden layers over
    those rows; ties go to the lowest index.  Backward walks the same
    chunks for the last layer, whose weight gradient it sums chunk by
    chunk, so no array holds more than one chunk's (objects, f, k_last)
    block.  A NaN is taken as the maximum, so it reaches the loss.
    """
    x, ws, bs = _lift(x), [_lift(w) for w in ws], [_lift(b) for b in bs]
    shapes = [x.shape, *(w.shape for w in ws), *(b.shape for b in bs)]
    if not ws or len(ws) != len(bs) or x.data.ndim not in (2, 3) or x.data.shape[-2] < 1:
        raise _bad_shapes("max_pool_points", *shapes)
    f = x.data.shape[-1]
    for w, b in zip(ws, bs):
        if w.data.ndim != 2 or w.data.shape[0] != f or b.data.shape != w.data.shape[1:]:
            raise _bad_shapes("max_pool_points", *shapes)
        f = w.data.shape[1]
    xs = x.data.reshape(-1, *x.data.shape[-2:])
    nb, n, k = xs.shape
    objs = max(1, _POOL_CHUNK // (n * max(w.data.shape[1] for w in ws)))
    chunks = range(0, nb, objs)
    keep = any(t.requires_grad for t in (x, *ws, *bs))
    top = np.empty((nb, f))
    # Per critical row (in flat batch order): its index and, for each layer,
    # its input; inverse maps each (object, column) to its critical row
    # within the chunk, whose rows begin at starts[chunk].
    rows, kept = [], [[] for _ in ws]
    inverse = np.empty((nb, f), dtype=np.intp)
    starts = [0]
    for o in chunks:
        span = slice(o, o + objs)
        hs = [xs[span].reshape(-1, k)]
        for slot, (w, b) in enumerate(zip(ws[:-1], bs[:-1])):
            h = np.matmul(hs[-1], w.data, out=_workspace_view(slot, len(hs[-1]), w.data.shape[1]))
            h += b.data
            np.maximum(h, 0.0, out=h)
            hs.append(h)
        # (f, objects, points) layout, so the max runs along contiguous memory.
        z = np.matmul(ws[-1].data.T, hs[-1].T, out=_workspace_view(len(ws) - 1, f, len(hs[-1])))
        z = z.reshape(f, -1, n)
        first = np.argmax(z, axis=-1)
        top[span] = np.take_along_axis(z, first[..., None], axis=-1)[..., 0].T
        if keep:
            local, inv = np.unique(first.T + np.arange(first.shape[1])[:, None] * n,
                                   return_inverse=True)
            inverse[span] = inv.reshape(-1, f)
            starts.append(starts[-1] + local.size)
            rows.append(local + o * n)
            for store, h in zip(kept, hs):
                store.append(h[local])
    top += bs[-1].data
    np.maximum(top, 0.0, out=top)
    if keep:
        # One layer at a time, each layer's parts freed once joined.
        rows, ins = _join(rows), []
        for store in kept:
            ins.append(_join(store))
            store.clear()

    def bw(g):
        gz = g.reshape(nb, f) * (top > 0.0)
        _accum(bs[-1], gz.sum(axis=0))
        hidden = len(ws) > 1 or x.requires_grad
        w_last = ws[-1].data
        kl = w_last.shape[0]
        gw = None
        gh = np.empty((starts[-1], kl)) if hidden else None
        for o, lo, hi in zip(chunks, starts, starts[1:]):
            span = slice(o, o + objs)
            if ws[-1].requires_grad:
                part = np.einsum("bfk,bf->kf", ins[-1][lo:hi][inverse[span]], gz[span])
                gw = part if gw is None else np.add(gw, part, out=gw)
            if hidden:
                # One bincount over flat element indices sums every column's
                # share into its critical row, in column order.
                flat = (inverse[span] * kl)[..., None] + np.arange(kl)
                gh[lo:hi] = np.bincount(flat.ravel(), weights=(gz[span][..., None] * w_last.T).ravel(),
                                        minlength=(hi - lo) * kl).reshape(hi - lo, kl)
        if gw is not None:
            _accum(ws[-1], gw)
        if not hidden:
            return
        for i in reversed(range(len(ws) - 1)):
            gh *= ins[i + 1] > 0.0
            _accum(bs[i], gh.sum(axis=0))
            _accum(ws[i], ins[i].T @ gh)
            gh = gh @ ws[i].data.T
        if x.requires_grad:
            gx = np.zeros((nb * n, k))
            gx[rows] = gh
            _accum(x, gx.reshape(x.data.shape))

    return _make(top.reshape(x.data.shape[:-2] + (f,)), (x, *ws, *bs), "max_pool_points", bw)


def gradients(loss: Tensor, params: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradients of a scalar loss for each parameter, zeros if untouched.

    The returned list owns them: every parameter's ``grad`` is None again
    on return, so dropping the list frees the step's gradients.
    """
    for p in params:
        p.grad = None
    loss.backward()
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    for p in params:
        p.grad = None
    return grads

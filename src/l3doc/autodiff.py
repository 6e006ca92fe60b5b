"""Dense float64 tensors with reverse-mode differentiation.

A minimal closure tape covering the operations the lifelong point-cloud
classifier composes its graphs from:

- ``relu(x, w, b)``: one whole pointwise layer, ``max(x @ w + b, 0)``, as a
  single node (pointwise layers 1 to L-1 and the head's hidden layers);
- ``max_pool_points(x, w, b)``: the last pointwise layer fused with the
  max over the point axis.  It multiplies the points chunk by chunk and
  keeps, per output column, the running maximum and the first point that
  attains it (PointNet's critical point), so the (batch, n_pts, w_last)
  activation is never built and backward touches one point per column;
- general algebra (``matmul``/``add``/``scale``, ``reshape``, ``sum_all``,
  ``stack_scalars``), numerically stable ``softmax`` and squared-L2
  penalties;
- the two kernel-reconstruction primitives (channel contraction and
  stride-1 transposed convolution, which reconstruction applies to an
  s-row grid of contracted knowledge rows).

Both fused ops let NaN through, so a NaN activation reaches the loss check.
They keep the names of the unary ops they replace because the benchmark's
tracer (bench/tracing.py) wraps ops by name, so every node the package
builds stays traced.  ``mul``, ``log`` and ``mean`` are not called by the
package; the tracer still wraps them by name.

Graphs are implicit: every op returns a new :class:`Tensor` holding its
parents and a closure that routes the upstream gradient to them, so the
DAG is acyclic by construction.  Tensors built into a graph are treated
as immutable; leaves created with ``requires_grad=True`` are the
trainable parameters.
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


# Elements of one chunk of max_pool_points' activation (8 MB): 1024 points
# of the widest PointNet layer, or 16384 points of a 64-wide one.
_POOL_CHUNK = 1 << 20


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
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    out._parents = parents
    out._op = op
    if out.requires_grad:
        out._backward = backward
    return out


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise _bad_shapes("gradient", g.shape, t.data.shape)
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


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
    """Trainable leaf. With ``rng`` and ``shape``, draws i.i.d. normal(0, std)."""
    if rng is not None:
        data = rng.normal(0.0, std, size=shape)
    return Tensor(data, requires_grad=True)


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
        _accum(a, g @ b.data.T)
        a2 = a.data.reshape(-1, a.data.shape[-1])
        g2 = g.reshape(-1, g.shape[-1])
        _accum(b, a2.T @ g2)

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

    def bw(g):
        _accum(a, 2.0 * float(g) * d)
        _accum(b, -2.0 * float(g) * d)

    return _make(np.asarray((d * d).sum()), (a, b), "sq_l2_diff", bw)


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
        _accum(c, np.tensordot(d.data, g2, axes=([1, 2], [0, 1]))[None, None])
        _accum(d, cv[:, None, None] * g2[None])

    return _make(out_data, (c, d), "channel_contract", bw)


def transposed_conv2d(x, k) -> Tensor:
    """Stride-1 transposed convolution, cropped back to the input grid.

    ``x`` is an (H, W, c_in) grid, ``k`` an (s, s, c_out, c_in) kernel.
    The full (H+s-1, W+s-1, c_out) scatter-add is formed and the top-left
    (H, W) block returned:

        out[y, x, o] = sum_{dy,dx,i} x[y-dy, x-dx, i] * k[dy, dx, o, i]
    """
    x, k = _lift(x), _lift(k)
    if x.data.ndim != 3 or k.data.ndim != 4:
        raise _bad_shapes("transposed_conv2d", x.shape, k.shape)
    h, w, c_in = x.data.shape
    s0, s1, c_out, kc_in = k.data.shape
    if h < 1 or w < 1 or s0 < 1 or s0 != s1 or kc_in != c_in:
        raise _bad_shapes("transposed_conv2d", x.shape, k.shape)
    s = s0
    full = np.zeros((h + s - 1, w + s - 1, c_out))
    flat = x.data.reshape(-1, c_in)
    for dy in range(s):
        for dx in range(s):
            full[dy:dy + h, dx:dx + w] += (flat @ k.data[dy, dx].T).reshape(h, w, c_out)
    out_data = full[:h, :w].copy()

    def bw(g):
        gfull = np.zeros((h + s - 1, w + s - 1, c_out))
        gfull[:h, :w] = g
        gx = np.zeros_like(x.data)
        gk = np.zeros_like(k.data)
        for dy in range(s):
            for dx in range(s):
                gwin = gfull[dy:dy + h, dx:dx + w].reshape(-1, c_out)
                gx += (gwin @ k.data[dy, dx]).reshape(h, w, c_in)
                gk[dy, dx] = gwin.T @ flat
        _accum(x, gx)
        _accum(k, gk)

    return _make(out_data, (x, k), "transposed_conv2d", bw)


def max_pool_points(x, w, b) -> Tensor:
    """The last pointwise layer and the max over points, as one node.

    ``x`` is (n_pts, k) or (batch, n_pts, k), ``w`` a (k, f) matrix and
    ``b`` an (f,) bias; the result, (f,) or (batch, f), is
    ``max(x @ w + b, 0)`` maximised over the point axis.  The points are
    multiplied in chunks of at most ``_POOL_CHUNK`` activations, keeping a
    running maximum and the first point that attains it, so the
    (batch, n_pts, f) activation is never built.  Each output column
    depends only on that point (PointNet's critical point), so backward
    gathers the weight gradient from, and scatters the input gradient to,
    one point per column; ties go to the lowest index.  A NaN is taken as
    the maximum, so it reaches the loss.
    """
    x, w, b = _lift(x), _lift(w), _lift(b)
    _dense_shapes("max_pool_points", x, w, b)
    if x.data.ndim > 3 or x.data.shape[-2] < 1:
        raise _bad_shapes("max_pool_points", x.shape, w.shape, b.shape)
    xs = x.data.reshape(-1, *x.data.shape[-2:])
    nb, n, k = xs.shape
    f = w.data.shape[1]
    rows = max(1, _POOL_CHUNK // f)
    objs, pts = max(1, rows // n), min(n, rows)
    top = np.full((nb, f), -np.inf)
    idx = np.zeros((nb, f), dtype=np.intp)
    for o in range(0, nb, objs):
        for s in range(0, n, pts):
            chunk = xs[o:o + objs, s:s + pts]
            n_obj, n_pt = chunk.shape[:2]
            # (f, points) layout, so the max runs along contiguous memory.
            z = (w.data.T @ chunk.reshape(-1, k).T).reshape(f, n_obj, n_pt)
            first = np.argmax(z, axis=-1)
            cm = np.take_along_axis(z, first[..., None], axis=-1)[..., 0].T
            span = slice(o, o + n_obj)
            # Only a strictly larger value moves the point: ties keep the earlier one.
            np.copyto(idx[span], first.T + s, where=cm > top[span])
            np.maximum(top[span], cm, out=top[span])
    top += b.data
    np.maximum(top, 0.0, out=top)

    def bw(g):
        gz = g.reshape(nb, f) * (top > 0.0)
        _accum(b, gz.sum(axis=0))
        if w.requires_grad:
            critical = xs[np.arange(nb)[:, None], idx]
            _accum(w, np.einsum("bfk,bf->kf", critical, gz))
        if x.requires_grad:
            # One bincount over flat element indices sums every column's
            # share into its point, in column order.
            flat = ((np.arange(nb)[:, None] * n + idx) * k)[..., None] + np.arange(k)
            gx = np.bincount(flat.ravel(), weights=(gz[..., None] * w.data.T).ravel(),
                             minlength=nb * n * k)
            _accum(x, gx.reshape(x.data.shape))

    return _make(top.reshape(x.data.shape[:-2] + (f,)), (x, w, b), "max_pool_points", bw)


def gradients(loss: Tensor, params: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradients of a scalar loss for each parameter, zeros if untouched."""
    for p in params:
        p.grad = None
    loss.backward()
    return [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]

"""Reverse-mode automatic differentiation on float64 numpy arrays.

A :class:`DiffContext` records a tape of primitive operations as a forward
pass runs; :func:`backward` replays the tape in reverse to fill parameter
gradients. A context made with ``record=False`` runs the same primitives
for inference and keeps no tape. The primitive set is intentionally small:
dense matmul, a few pointwise maps, row softmax, layer norm, index
gather/scatter, and shape plumbing. Everything heavier is composed from
these.

Primitives are batch-first: matmul works on stacks of matrices, softmax
and layer norm act on the last axis, transpose swaps the last two axes,
and a second operand of add/sub may broadcast against the first (a row
bias, or a constant shared by every batch row).

Gradients land in :class:`Param` buffers and accumulate across backward
calls until explicitly zeroed, so one optimizer step can sum losses from
several tapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp_special

from .errors import ContractError, DimensionError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """Immutable-by-convention float64 array wrapper.

    A tensor produced by a recording context carries that context and its
    slot on the tape; constants and tape-free outputs have no slot.
    """

    __slots__ = ("data", "_ctx", "_slot")

    def __init__(self, data, _ctx=None, _slot=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ContractError("tensor values must be finite")
        self.data = arr
        self._ctx = _ctx
        self._slot = _slot

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.shape != ():
            raise ContractError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data)

    def __float__(self):
        return self.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Param:
    """A trainable tensor with a persistent gradient buffer."""

    __slots__ = ("tensor", "grad")

    def __init__(self, data):
        self.tensor = Tensor(data)
        self.grad = Tensor(np.zeros_like(self.tensor.data))

    @property
    def shape(self):
        return self.tensor.shape

    def zero_grad(self):
        self.grad.data[...] = 0.0

    def __repr__(self):
        return f"Param(shape={self.tensor.shape})"


class DiffContext:
    """One forward pass. Create a fresh context per pass.

    With ``record=True`` every primitive that reads a Param, or a tensor
    recorded on this context, appends a tape node ``(keys, vjp)`` for
    :func:`backward`. A key names one input: the Param itself, the slot of
    a tensor recorded here, or None for an input that takes no gradient.
    Nodes hold no Tensor: a ``vjp(g, keys)`` closure keeps only the arrays
    and shapes its gradients need and returns one gradient (or None) per
    key, so activations nothing needs for backward are freed during the
    forward pass. With ``record=False`` nothing is kept. Outputs are
    finite-checked either way.
    """

    __slots__ = ("nodes", "record", "replayed")

    def __init__(self, record: bool = True):
        self.nodes = []
        self.record = record
        self.replayed = False

    def _key(self, x):
        if isinstance(x, Param):
            return x
        if isinstance(x, Tensor) and x._ctx is self:
            return x._slot
        return None

    def _record(self, out_data, vjp, *objs):
        if not self.record:
            return Tensor(out_data, self)
        if self.replayed:
            raise ContractError("backward already replayed this context; start a fresh one")
        keys = tuple([self._key(o) for o in objs])
        if keys.count(None) == len(keys):
            # nothing upstream takes a gradient: the output is a constant
            return Tensor(out_data, self)
        out = Tensor(out_data, self, len(self.nodes))
        self.nodes.append((keys, vjp))
        return out

    def __len__(self):
        return len(self.nodes)


def value(x) -> np.ndarray:
    """Raw ndarray behind a Tensor, Param, or array-like."""
    if isinstance(x, Param):
        return x.tensor.data
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def constant(x) -> Tensor:
    """Wrap data as a leaf that receives no gradient."""
    return Tensor(x)


def resolve_ctx(ctx, *tensors) -> DiffContext:
    """``ctx`` if given, else the context the first of ``tensors`` recorded
    on, else a fresh one (for losses called on constants or raw arrays)."""
    if ctx is not None:
        return ctx
    for t in tensors:
        if isinstance(t, Tensor) and t._ctx is not None:
            return t._ctx
    return DiffContext()


def backward(output: Tensor, ctx: DiffContext | None = None) -> None:
    """Backpropagate d(output)/d(param) into every Param on the tape.

    ``output`` must be a scalar produced by the context being replayed.
    Gradients accumulate into ``param.grad`` (no implicit zeroing).

    Replaying consumes the tape: each node is popped as it is walked, so
    the arrays its vjp kept are freed as soon as its gradients are out. A
    second backward on the same context, or recording on it afterwards,
    is an error.
    """
    if not isinstance(output, Tensor):
        raise ContractError("backward expects a Tensor output")
    if ctx is None:
        ctx = output._ctx
    if ctx is None or output._ctx is not ctx:
        raise ContractError("output is not attached to the given DiffContext")
    if not ctx.record:
        raise ContractError("backward needs a context that records a tape")
    if output.shape != ():
        raise ContractError(f"backward needs a scalar output, got shape {output.shape}")
    if ctx.replayed:
        raise ContractError("the tape is empty: backward already replayed it")
    ctx.replayed = True
    nodes, ctx.nodes = ctx.nodes, []
    if output._slot is None:
        return  # no Param reaches the output
    # nodes after the output cannot reach it
    del nodes[output._slot + 1 :]
    grads = [None] * len(nodes)  # grads[slot]: gradient w.r.t. that node's output
    grads[-1] = np.ones((), dtype=np.float64)
    while nodes:
        keys, vjp = nodes.pop()
        g = grads.pop()
        if g is None:
            continue
        for key, gi in zip(keys, vjp(g, keys)):
            if gi is None or key is None:
                continue
            if isinstance(key, Param):
                key.grad.data += gi
            elif grads[key] is None:
                grads[key] = gi
            else:
                grads[key] = grads[key] + gi


# ---------------------------------------------------------------------------
# Primitive operations. Each takes the tape as first argument.


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape``, the adjoint of numpy broadcasting."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    if lead:
        g = g.sum(axis=tuple(range(lead)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def matmul(ctx: DiffContext, a, b) -> Tensor:
    """Matrix product over the last two axes.

    Either operand may carry leading batch axes; when both do they must
    match, and a 2-D operand is shared by every batch entry.
    """
    av, bv = value(a), value(b)
    if (
        av.ndim < 2
        or bv.ndim < 2
        or av.shape[-1] != bv.shape[-2]
        or (av.ndim > 2 and bv.ndim > 2 and av.shape[:-2] != bv.shape[:-2])
    ):
        raise DimensionError(f"matmul shapes {av.shape} and {bv.shape} are incompatible")

    def vjp(g, keys):
        ga = gb = None
        if keys[0] is not None:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(bv, -1, -2)), av.shape)
        if keys[1] is not None:
            if bv.ndim == 2:
                # a shared right operand: one product over all stacked rows
                gb = av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.matmul(np.swapaxes(av, -1, -2), g), bv.shape)
        return ga, gb

    return ctx._record(np.matmul(av, bv), vjp, a, b)


def _check_broadcast(av, bv, opname):
    # the right operand may broadcast against the left; the output keeps the left's shape
    if av.shape == bv.shape:
        return
    if bv.ndim <= av.ndim and all(n in (1, m) for n, m in zip(bv.shape[::-1], av.shape[::-1])):
        return
    raise DimensionError(f"{opname} shapes {av.shape} and {bv.shape} are incompatible")


def add(ctx: DiffContext, a, b) -> Tensor:
    """Elementwise sum; ``b`` may broadcast against ``a`` (e.g. a row bias)."""
    av, bv = value(a), value(b)
    _check_broadcast(av, bv, "add")
    b_shape = bv.shape

    def vjp(g, keys):
        return g, (_unbroadcast(g, b_shape) if keys[1] is not None else None)

    return ctx._record(av + bv, vjp, a, b)


def sub(ctx: DiffContext, a, b) -> Tensor:
    """Elementwise difference; same shape rules as :func:`add`."""
    av, bv = value(a), value(b)
    _check_broadcast(av, bv, "sub")
    b_shape = bv.shape

    def vjp(g, keys):
        return g, (-_unbroadcast(g, b_shape) if keys[1] is not None else None)

    return ctx._record(av - bv, vjp, a, b)


def mul(ctx: DiffContext, a, b) -> Tensor:
    """Elementwise product of same-shape operands."""
    av, bv = value(a), value(b)
    if av.shape != bv.shape:
        raise DimensionError(f"mul shapes {av.shape} and {bv.shape} are incompatible")

    def vjp(g, keys):
        return (
            g * bv if keys[0] is not None else None,
            g * av if keys[1] is not None else None,
        )

    return ctx._record(av * bv, vjp, a, b)


def scale(ctx: DiffContext, a, c: float) -> Tensor:
    """Multiply by a Python float constant."""
    av = value(a)
    c = float(c)

    def vjp(g, keys):
        return (c * g,)

    return ctx._record(c * av, vjp, a)


def scalar_mul(ctx: DiffContext, s, a) -> Tensor:
    """Broadcast a ()-shaped tensor across ``a``; differentiable in both."""
    sv, av = value(s), value(a)
    if sv.shape != ():
        raise DimensionError(f"scalar_mul needs a ()-shaped scalar, got {sv.shape}")

    def vjp(g, keys):
        return (
            np.asarray((g * av).sum()) if keys[0] is not None else None,
            sv * g if keys[1] is not None else None,
        )

    return ctx._record(sv * av, vjp, s, a)


def row_softmax(ctx: DiffContext, a) -> Tensor:
    """Softmax along the last axis, max-subtracted for stability."""
    av = value(a)
    if av.ndim < 1:
        raise DimensionError(f"row_softmax needs at least one axis, got {av.shape}")
    shifted = av - av.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g, keys):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return ctx._record(out, vjp, a)


def layer_norm(ctx: DiffContext, x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalization over the last axis with learned gain and bias."""
    xv, gv, bv = value(x), value(gain), value(bias)
    if xv.ndim < 2:
        raise DimensionError(f"layer_norm needs a batch of rows, got {xv.shape}")
    d = xv.shape[-1]
    if gv.shape != (d,) or bv.shape != (d,):
        raise DimensionError(
            f"layer_norm gain/bias shapes {gv.shape}/{bv.shape} do not match width {d}"
        )
    mu = xv.mean(axis=-1, keepdims=True)
    var = xv.var(axis=-1, keepdims=True)
    std = np.sqrt(var + eps)
    xhat = (xv - mu) / std

    def vjp(g, keys):
        gx = gg = gb = None
        if keys[0] is not None:
            h = g * gv
            term = h - h.mean(axis=-1, keepdims=True) - xhat * (h * xhat).mean(axis=-1, keepdims=True)
            gx = term / std
        if keys[1] is not None:
            gg = (g * xhat).reshape(-1, d).sum(axis=0)
        if keys[2] is not None:
            gb = g.reshape(-1, d).sum(axis=0)
        return gx, gg, gb

    return ctx._record(xhat * gv + bv, vjp, x, gain, bias)


def gelu(ctx: DiffContext, x) -> Tensor:
    """Exact Gaussian-error linear unit."""
    xv = value(x)
    cdf = 0.5 * (1.0 + sp_special.erf(xv * _INV_SQRT2))

    def vjp(g, keys):
        pdf = np.exp(-0.5 * xv * xv) * _INV_SQRT_2PI
        return (g * (cdf + xv * pdf),)

    return ctx._record(xv * cdf, vjp, x)


def sigmoid(ctx: DiffContext, x) -> Tensor:
    """Logistic map, numerically stable at large magnitudes."""
    out = sp_special.expit(value(x))

    def vjp(g, keys):
        return (g * out * (1.0 - out),)

    return ctx._record(out, vjp, x)


def exp(ctx: DiffContext, x) -> Tensor:
    out = np.exp(value(x))

    def vjp(g, keys):
        return (g * out,)

    return ctx._record(out, vjp, x)


def log(ctx: DiffContext, x) -> Tensor:
    """Natural log; domain is strictly positive."""
    xv = value(x)
    if (xv <= 0.0).any():
        raise ContractError("log domain error: inputs must be strictly positive")

    def vjp(g, keys):
        return (g / xv,)

    return ctx._record(np.log(xv), vjp, x)


def reciprocal(ctx: DiffContext, x) -> Tensor:
    """1/x elementwise; zeros are a domain error."""
    xv = value(x)
    if (xv == 0.0).any():
        raise ContractError("reciprocal domain error: zero entry")
    out = 1.0 / xv

    def vjp(g, keys):
        return (-g * out * out,)

    return ctx._record(out, vjp, x)


def square(ctx: DiffContext, x) -> Tensor:
    xv = value(x)

    def vjp(g, keys):
        return (2.0 * xv * g,)

    return ctx._record(xv * xv, vjp, x)


def mean(ctx: DiffContext, x) -> Tensor:
    """Mean over all elements, producing a ()-shaped scalar."""
    xv = value(x)
    if xv.size == 0:
        raise ContractError("mean of an empty tensor")
    shape, n = xv.shape, xv.size

    def vjp(g, keys):
        return (np.full(shape, float(g) / n),)

    return ctx._record(np.asarray(xv.mean()), vjp, x)


def _index_at(idx: np.ndarray, axis: int):
    """Where ``idx`` points: a 1-D index picks the same entries
    along ``axis`` for every leading row; a 2-D ``[B, k]`` index picks, for
    batch row ``b``, entries ``idx[b]`` along axis 1."""
    if idx.ndim == 1:
        return (slice(None),) * axis + (idx,)
    return (np.arange(idx.shape[0])[:, None], idx)


def _check_indices(x: np.ndarray, idx, axis: int, opname: str, bound: int | None = None) -> np.ndarray:
    idx = np.asarray(idx)
    if not 0 <= axis < x.ndim:
        raise DimensionError(f"{opname} axis {axis} invalid for shape {x.shape}")
    if bound is None:
        bound = x.shape[axis]
    if idx.ndim == 2:
        if axis != 1 or idx.shape[0] != x.shape[0]:
            raise DimensionError(
                f"{opname} with per-row indices {idx.shape} needs axis 1 of a batch of "
                f"{idx.shape[0]} rows, got axis {axis} of shape {x.shape}"
            )
    elif idx.ndim != 1:
        raise ContractError(f"{opname} needs a 1-D or [batch, k] index array")
    if idx.size == 0:
        raise ContractError(f"{opname} needs a nonempty index array")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ContractError(f"{opname} indices must be integers")
    if (idx < 0).any() or (idx >= bound).any():
        raise ContractError(f"{opname} index out of range [0, {bound})")
    return idx


def gather(ctx: DiffContext, x, idx, axis: int = 0) -> Tensor:
    """Select entries along ``axis`` by integer index.

    A 1-D ``idx`` selects the same entries for every leading row; a 2-D
    ``[B, k]`` ``idx`` selects per batch row along axis 1.
    """
    xv = value(x)
    idx = _check_indices(xv, idx, axis, "gather")
    at = _index_at(idx, axis)
    shape = xv.shape

    def vjp(g, keys):
        dx = np.zeros(shape)
        np.add.at(dx, at, g)
        return (dx,)

    return ctx._record(xv[at], vjp, x)


def scatter(ctx: DiffContext, x, idx, size: int, axis: int = 0) -> Tensor:
    """Place slices of ``x`` into a zero tensor of extent ``size`` on ``axis``.

    Index rules are those of :func:`gather`. Duplicate indices accumulate.
    The adjoint is a gather at the same indices.
    """
    xv = value(x)
    idx = _check_indices(xv, idx, axis, "scatter", bound=size)
    if idx.shape[-1] != xv.shape[axis]:
        raise DimensionError(
            f"scatter index count {idx.shape[-1]} does not match input extent {xv.shape[axis]}"
        )
    shape = list(xv.shape)
    shape[axis] = size
    out = np.zeros(shape, dtype=np.float64)
    at = _index_at(idx, axis)
    np.add.at(out, at, xv)

    def vjp(g, keys):
        return (g[at],)

    return ctx._record(out, vjp, x)


def concat(ctx: DiffContext, parts, axis: int = 0) -> Tensor:
    """Concatenate tensors along an axis."""
    parts = list(parts)
    if not parts:
        raise ContractError("concat needs at least one part")
    vals = [value(p) for p in parts]
    out = np.concatenate(vals, axis=axis)
    offsets = np.cumsum([0] + [v.shape[axis] for v in vals])

    def vjp(g, keys):
        grads = []
        for key, lo, hi in zip(keys, offsets[:-1], offsets[1:]):
            if key is None:
                grads.append(None)
            else:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(int(lo), int(hi))
                grads.append(g[tuple(sl)])
        return grads

    return ctx._record(out, vjp, *parts)


def transpose(ctx: DiffContext, x) -> Tensor:
    """Swap the last two axes (a plain transpose for 2-D input)."""
    xv = value(x)
    if xv.ndim < 2:
        raise DimensionError(f"transpose needs at least 2 axes, got {xv.shape}")

    def vjp(g, keys):
        # contiguous, so later reductions over g (bias gradients) sum rows in
        # the same order whatever layout the gradient arrived in
        return (np.ascontiguousarray(np.swapaxes(g, -1, -2)),)

    return ctx._record(np.ascontiguousarray(np.swapaxes(xv, -1, -2)), vjp, x)


def reshape(ctx: DiffContext, x, shape) -> Tensor:
    xv = value(x)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != xv.size:
        raise DimensionError(f"cannot reshape {xv.shape} to {shape}")
    in_shape = xv.shape

    def vjp(g, keys):
        return (g.reshape(in_shape),)

    return ctx._record(xv.reshape(shape), vjp, x)


# ---------------------------------------------------------------------------
# Finite-difference verification.


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    passed: bool
    n_elements: int


def grad_check(f, inputs, eps: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of ``f`` against central differences.

    ``f(ctx, *params) -> scalar Tensor`` is evaluated once with backprop and
    then twice per input element for the finite-difference probe. The error
    is ``|analytic - fd| / max(|analytic|, |fd|, 1)``, so tiny gradients are
    compared absolutely.
    """
    params = [Param(np.asarray(x, dtype=np.float64)) for x in inputs]
    ctx = DiffContext()
    out = f(ctx, *params)
    if not isinstance(out, Tensor) or out.shape != ():
        raise ContractError("grad_check target must return a scalar Tensor")
    backward(out, ctx)
    analytic = [p.grad.data.copy() for p in params]

    max_rel = 0.0
    n_elems = 0
    for p, grad in zip(params, analytic):
        flat = p.tensor.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f(DiffContext(record=False), *params).data)
            flat[i] = orig - eps
            f_minus = float(f(DiffContext(record=False), *params).data)
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            a = gflat[i]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1.0)
            max_rel = max(max_rel, rel)
            n_elems += 1
    return GradCheckReport(max_rel_err=max_rel, tol=tol, passed=max_rel <= tol, n_elements=n_elems)

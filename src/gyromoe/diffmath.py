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
    """Immutable-by-convention float64 array wrapper carrying its tape."""

    __slots__ = ("data", "_ctx")

    def __init__(self, data, _ctx=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ContractError("tensor values must be finite")
        self.data = arr
        self._ctx = _ctx

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

    With ``record=True`` every primitive appends a tape node for
    :func:`backward`; with ``record=False`` nothing is kept, and the
    context only tags its outputs. Outputs are finite-checked either way.
    """

    __slots__ = ("nodes", "record")

    def __init__(self, record: bool = True):
        self.nodes = []
        self.record = record

    def _record(self, out_data, vjp, *objs):
        out = Tensor(out_data, _ctx=self)
        if self.record:
            # only Tensor/Param inputs participate in backprop
            inputs = tuple(o for o in objs if isinstance(o, (Tensor, Param)))
            self.nodes.append((out, inputs, vjp))
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


def backward(output: Tensor, ctx: DiffContext | None = None) -> None:
    """Backpropagate d(output)/d(param) into every Param on the tape.

    ``output`` must be a scalar produced by the context being replayed.
    Gradients accumulate into ``param.grad`` (no implicit zeroing).

    Replaying consumes the tape. Its nodes and the tensors they hold form
    reference cycles with the context, which only the cycle collector
    would free; emptying the tape frees them as soon as the caller drops
    the output. A second backward on the same context is an error.
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
    if not ctx.nodes:
        raise ContractError("the tape is empty: backward already replayed it")
    nodes, ctx.nodes = ctx.nodes, []
    grads: dict[int, np.ndarray] = {id(output): np.ones((), dtype=np.float64)}
    for out, inputs, vjp in reversed(nodes):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for inp, gi in zip(inputs, vjp(g)):
            if gi is None:
                continue
            if isinstance(inp, Param):
                inp.grad.data += gi
            else:
                key = id(inp)
                if key in grads:
                    grads[key] = grads[key] + gi
                else:
                    grads[key] = gi


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
    out = np.matmul(av, bv)

    def vjp(g):
        grads = []
        if isinstance(a, (Tensor, Param)):
            grads.append(_unbroadcast(np.matmul(g, np.swapaxes(bv, -1, -2)), av.shape))
        if isinstance(b, (Tensor, Param)):
            if bv.ndim == 2:
                # a shared right operand: one product over all stacked rows
                grads.append(av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
            else:
                grads.append(_unbroadcast(np.matmul(np.swapaxes(av, -1, -2), g), bv.shape))
        return grads

    return ctx._record(out, vjp, a, b)


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

    def vjp(g):
        grads = []
        if isinstance(a, (Tensor, Param)):
            grads.append(g)
        if isinstance(b, (Tensor, Param)):
            grads.append(_unbroadcast(g, bv.shape))
        return grads

    return ctx._record(av + bv, vjp, a, b)


def sub(ctx: DiffContext, a, b) -> Tensor:
    """Elementwise difference; same shape rules as :func:`add`."""
    av, bv = value(a), value(b)
    _check_broadcast(av, bv, "sub")

    def vjp(g):
        grads = []
        if isinstance(a, (Tensor, Param)):
            grads.append(g)
        if isinstance(b, (Tensor, Param)):
            grads.append(-_unbroadcast(g, bv.shape))
        return grads

    return ctx._record(av - bv, vjp, a, b)


def mul(ctx: DiffContext, a, b) -> Tensor:
    """Elementwise product of same-shape operands."""
    av, bv = value(a), value(b)
    if av.shape != bv.shape:
        raise DimensionError(f"mul shapes {av.shape} and {bv.shape} are incompatible")

    def vjp(g):
        grads = []
        if isinstance(a, (Tensor, Param)):
            grads.append(g * bv)
        if isinstance(b, (Tensor, Param)):
            grads.append(g * av)
        return grads

    return ctx._record(av * bv, vjp, a, b)


def scale(ctx: DiffContext, a, c: float) -> Tensor:
    """Multiply by a Python float constant."""
    av = value(a)
    c = float(c)

    def vjp(g):
        return (c * g,) if isinstance(a, (Tensor, Param)) else ()

    return ctx._record(c * av, vjp, a)


def scalar_mul(ctx: DiffContext, s, a) -> Tensor:
    """Broadcast a ()-shaped tensor across ``a``; differentiable in both."""
    sv, av = value(s), value(a)
    if sv.shape != ():
        raise DimensionError(f"scalar_mul needs a ()-shaped scalar, got {sv.shape}")

    def vjp(g):
        grads = []
        if isinstance(s, (Tensor, Param)):
            grads.append(np.asarray((g * av).sum()))
        if isinstance(a, (Tensor, Param)):
            grads.append(sv * g)
        return grads

    return ctx._record(sv * av, vjp, s, a)


def row_softmax(ctx: DiffContext, a) -> Tensor:
    """Softmax along the last axis, max-subtracted for stability."""
    av = value(a)
    if av.ndim < 1:
        raise DimensionError(f"row_softmax needs at least one axis, got {av.shape}")
    shifted = av - av.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        if not isinstance(a, (Tensor, Param)):
            return ()
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
    out = xhat * gv + bv

    def vjp(g):
        grads = []
        if isinstance(x, (Tensor, Param)):
            h = g * gv
            term = h - h.mean(axis=-1, keepdims=True) - xhat * (h * xhat).mean(axis=-1, keepdims=True)
            grads.append(term / std)
        if isinstance(gain, (Tensor, Param)):
            grads.append((g * xhat).reshape(-1, d).sum(axis=0))
        if isinstance(bias, (Tensor, Param)):
            grads.append(g.reshape(-1, d).sum(axis=0))
        return grads

    return ctx._record(out, vjp, x, gain, bias)


def gelu(ctx: DiffContext, x) -> Tensor:
    """Exact Gaussian-error linear unit."""
    xv = value(x)
    cdf = 0.5 * (1.0 + sp_special.erf(xv * _INV_SQRT2))
    out = xv * cdf

    def vjp(g):
        if not isinstance(x, (Tensor, Param)):
            return ()
        pdf = np.exp(-0.5 * xv * xv) * _INV_SQRT_2PI
        return (g * (cdf + xv * pdf),)

    return ctx._record(out, vjp, x)


def sigmoid(ctx: DiffContext, x) -> Tensor:
    """Logistic map, numerically stable at large magnitudes."""
    xv = value(x)
    out = sp_special.expit(xv)

    def vjp(g):
        if not isinstance(x, (Tensor, Param)):
            return ()
        return (g * out * (1.0 - out),)

    return ctx._record(out, vjp, x)


def exp(ctx: DiffContext, x) -> Tensor:
    xv = value(x)
    out = np.exp(xv)

    def vjp(g):
        return (g * out,) if isinstance(x, (Tensor, Param)) else ()

    return ctx._record(out, vjp, x)


def log(ctx: DiffContext, x) -> Tensor:
    """Natural log; domain is strictly positive."""
    xv = value(x)
    if (xv <= 0.0).any():
        raise ContractError("log domain error: inputs must be strictly positive")
    out = np.log(xv)

    def vjp(g):
        return (g / xv,) if isinstance(x, (Tensor, Param)) else ()

    return ctx._record(out, vjp, x)


def reciprocal(ctx: DiffContext, x) -> Tensor:
    """1/x elementwise; zeros are a domain error."""
    xv = value(x)
    if (xv == 0.0).any():
        raise ContractError("reciprocal domain error: zero entry")
    out = 1.0 / xv

    def vjp(g):
        return (-g * out * out,) if isinstance(x, (Tensor, Param)) else ()

    return ctx._record(out, vjp, x)


def square(ctx: DiffContext, x) -> Tensor:
    xv = value(x)

    def vjp(g):
        return (2.0 * xv * g,) if isinstance(x, (Tensor, Param)) else ()

    return ctx._record(xv * xv, vjp, x)


def mean(ctx: DiffContext, x) -> Tensor:
    """Mean over all elements, producing a ()-shaped scalar."""
    xv = value(x)
    if xv.size == 0:
        raise ContractError("mean of an empty tensor")
    out = np.asarray(xv.mean())

    def vjp(g):
        if not isinstance(x, (Tensor, Param)):
            return ()
        return (np.full_like(xv, float(g) / xv.size),)

    return ctx._record(out, vjp, x)


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
    out = xv[at]

    def vjp(g):
        if not isinstance(x, (Tensor, Param)):
            return ()
        dx = np.zeros_like(xv)
        np.add.at(dx, at, g)
        return (dx,)

    return ctx._record(out, vjp, x)


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

    def vjp(g):
        if not isinstance(x, (Tensor, Param)):
            return ()
        return (g[at],)

    return ctx._record(out, vjp, x)


def concat(ctx: DiffContext, parts, axis: int = 0) -> Tensor:
    """Concatenate tensors along an axis."""
    parts = list(parts)
    if not parts:
        raise ContractError("concat needs at least one part")
    vals = [value(p) for p in parts]
    out = np.concatenate(vals, axis=axis)
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        grads = []
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if isinstance(p, (Tensor, Param)):
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

    def vjp(g):
        # contiguous, so later reductions over g (bias gradients) sum rows in
        # the same order whatever layout the gradient arrived in
        return (np.ascontiguousarray(np.swapaxes(g, -1, -2)),) if isinstance(x, (Tensor, Param)) else ()

    return ctx._record(np.ascontiguousarray(np.swapaxes(xv, -1, -2)), vjp, x)


def reshape(ctx: DiffContext, x, shape) -> Tensor:
    xv = value(x)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != xv.size:
        raise DimensionError(f"cannot reshape {xv.shape} to {shape}")

    def vjp(g):
        return (g.reshape(xv.shape),) if isinstance(x, (Tensor, Param)) else ()

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
            f_plus = float(f(DiffContext(), *params).data)
            flat[i] = orig - eps
            f_minus = float(f(DiffContext(), *params).data)
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            a = gflat[i]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1.0)
            max_rel = max(max_rel, rel)
            n_elems += 1
    return GradCheckReport(max_rel_err=max_rel, tol=tol, passed=max_rel <= tol, n_elements=n_elems)

"""Forward-only pre-norm encoder with a pluggable token-mixing mechanism.

The block structure is the standard one: prepend a class token to the embedded
patches, add positional embeddings, then run L rounds of

    tokens <- mix(LN(tokens)) + tokens
    tokens <- mlp(LN(tokens)) + tokens

and read out the layer-normalized class token.  The mixer is any registry
variant id (or a callable), which makes the encoder the integration vehicle
for comparing mechanisms end to end.  An unknown id fails when the parameters
are built; a callable's output goes through ``as_matrix``.

Allocation discipline: the mixer gets a layer-normed copy of the tokens and
its output is only read, since a callable mixer may keep either.  The rest of a
block runs over row tiles of about 65536 hidden activations (256 rows at hidden
256), so no n-by-hidden array exists; the last tile absorbs a one-row
remainder, which numpy would send to gemv.  That rest is row-local and only the
class token is read out, so the last block runs it on rows 0:2 alone (two rows,
again for gemv) and skips 1/depth of the MLP work.  Gelu runs in place on each
tile (``_gelu_into``: ``gelu``'s one-line formula, ufunc by ufunc, operands in
its order).  A half runs in the one dtype of its tokens, mixer output and
parameters, so every step writes in place.  The row-local steps keep the
whole-array formula's bytes unless a parameter outranks the tokens (complex on
real tokens moves the last bits), and the GEMMs keep them where BLAS rounds a
row tile as it rounds the whole matrix (OpenBLAS does at the benchmark shapes,
not at all shapes).

The tiles of an MLP half run in contiguous chunks, one per CPU in the
process's affinity (``os.sched_getaffinity``, else ``os.cpu_count``).  The
caller's thread runs the first chunk and a thread started for the call runs
each other one, in a copy of the caller's context (numpy's ``errstate`` lives
there); the call joins them before it returns.  numpy's ufuncs, scipy's ``erf``
and BLAS release the GIL, so with one BLAS thread the chunks run at once; with a
multi-threaded BLAS their GEMMs compete with its threads, and on a 2-vCPU VM
they gained nothing.  A chunk runs exactly the tiles of the serial loop, on its
own tile buffers, and writes only its own rows, so the bytes do not depend on
the CPU count.  A half of one tile, or a process held to one CPU
(``taskset -c 0``), runs the serial loop on the caller's thread, as does a
chunk whose thread cannot start (at interpreter shutdown).  Only these tiles
leave the caller's thread: the mixer, which may be user code, and the other
layer norms stay on it.

The tile size serves two limits.  One tile's buffers and gelu's temporary, about
1.3 MB of float64 at 256 rows, stay in a 2-MB per-core L2.  And each of a tile's
24 numpy calls holds the GIL while Python dispatches it, so the chunks take
turns on the GIL once per call: fewer, larger tiles mean fewer hand-offs.

Layer norm forms one mean and reduces the variance from the centered rows as
``ndarray.var`` does, so its bytes are those of the two-call formula without
var's second mean and full-size temporary.  A row whose variance overflows,
though its entries are finite, is normalized again from the row divided by an
exact power of two, where the formula would give zeros.

Import cost: ``import attnops`` loads only numpy.  scipy.special, whose ``erf``
ufunc gelu runs, takes several times longer to import than the rest of the
package (about 0.3 s and 20 MB on a 2-vCPU Xeon with scipy 1.17), so it is
loaded once, when an encoder is built (``vit_init``) or ``gelu`` first runs; a
forward timed after ``vit_init`` never includes the import.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .attention import AttnInputs
from .dense import as_matrix
from .errors import DimensionMismatch
from .registry import forward as registry_forward, lookup

LAYER_NORM_EPS = 1e-5
# Hidden activations per MLP row tile: its buffers stay in a 2-MB L2, and few tiles mean few
# GIL hand-offs between chunks (module docstring).  At 8x this, the temporaries page-fault.
_TILE_ELEMENTS = 65536
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class BlockParams:
    ln1_scale: np.ndarray
    ln1_shift: np.ndarray
    ln2_scale: np.ndarray
    ln2_shift: np.ndarray
    mlp_w1: np.ndarray
    mlp_b1: np.ndarray
    mlp_w2: np.ndarray
    mlp_b2: np.ndarray


@dataclass(frozen=True)
class ViTParams:
    """Embedding, per-block and readout parameters plus the mixer selection."""

    patch_embed: np.ndarray
    pos_embed: np.ndarray
    class_token: np.ndarray
    blocks: tuple
    head_scale: np.ndarray
    head_shift: np.ndarray
    mechanism: str | Callable[[AttnInputs], np.ndarray] = "softmax"
    mechanism_options: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not callable(self.mechanism):
            lookup(self.mechanism)  # an unknown id fails here, not at the first forward

    @property
    def patch_dim(self) -> int:
        return self.patch_embed.shape[0]

    @property
    def width(self) -> int:
        return self.patch_embed.shape[1]

    @property
    def n_patches(self) -> int:
        return self.pos_embed.shape[0] - 1

    @property
    def depth(self) -> int:
        return len(self.blocks)


def vit_init(
    patch_dim: int,
    width: int,
    hidden: int,
    n_patches: int,
    depth: int,
    seed: int = 0,
    mechanism: str | Callable[[AttnInputs], np.ndarray] = "softmax",
    mechanism_options: Mapping | None = None,
) -> ViTParams:
    """Uniform [-1/sqrt(width), 1/sqrt(width)] init; identical seeds give identical bytes.

    Layer-norm scales start at one and shifts at zero; everything else is
    drawn from a single seeded stream in a fixed order.
    """
    for name, count in (
        ("patch_dim", patch_dim),
        ("width", width),
        ("hidden", hidden),
        ("n_patches", n_patches),
    ):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    _erf()  # load scipy.special now, so the first forward does not pay for it
    rng = np.random.default_rng(seed)
    bound = 1.0 / math.sqrt(width)

    def draw(*shape):
        return rng.uniform(-bound, bound, shape)

    blocks = []
    patch_embed = draw(patch_dim, width)
    pos_embed = draw(n_patches + 1, width)
    class_token = draw(width)
    for _ in range(depth):
        blocks.append(
            BlockParams(
                ln1_scale=np.ones(width),
                ln1_shift=np.zeros(width),
                ln2_scale=np.ones(width),
                ln2_shift=np.zeros(width),
                mlp_w1=draw(width, hidden),
                mlp_b1=draw(hidden),
                mlp_w2=draw(hidden, width),
                mlp_b2=draw(width),
            )
        )
    return ViTParams(
        patch_embed=patch_embed,
        pos_embed=pos_embed,
        class_token=class_token,
        blocks=tuple(blocks),
        head_scale=np.ones(width),
        head_shift=np.zeros(width),
        mechanism=mechanism,
        mechanism_options=dict(mechanism_options or {}),
    )


def _into(ufunc, a: np.ndarray, b) -> np.ndarray:
    """``ufunc(a, b)``, written into ``a`` when the result keeps ``a``'s dtype and shape.

    ``a`` must be a temporary the caller owns.  When ``b`` promotes the dtype or
    broadcasts ``a`` to a larger shape, a new array is returned, as the plain
    expression would.
    """
    if np.result_type(a, b) != a.dtype:
        return ufunc(a, b)
    try:
        return ufunc(a, b, out=a)
    except ValueError:  # the broadcast shape is larger than ``a``
        return ufunc(a, b)


def _squared_row_mean(centered: np.ndarray) -> np.ndarray:
    """Square ``centered`` in place; return its (rows, 1) row means, reduced as ``ndarray.var``
    reduces them (complex: re^2 + im^2 through the real view, summed into the real parts)."""
    if centered.dtype.kind != "c":
        squares = np.square(centered, out=centered)
    else:
        pairs = centered.view((centered.real.dtype, (2,)))
        np.square(pairs, out=pairs)
        squares = np.add(pairs[..., 0], pairs[..., 1], out=centered.real)
    var = np.add.reduce(squares, axis=-1, keepdims=True)
    return np.true_divide(var, np.intp(centered.shape[-1]), out=var, casting="unsafe")


def _standardize(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``layer_norm`` without its scale and shift, into ``out`` (of its dtype and shape) if given.

    One mean serves the shift and the variance, which is reduced from squares
    written into ``out`` before it takes ``x - mean`` again (a pass, not a
    full-size allocation).  The reductions and divisions are ``ndarray.mean``'s
    and ``ndarray.var``'s, so the bytes are those of the two-call formula.
    """
    mean = np.add.reduce(x, -1, np.float64 if x.dtype.kind in "biu" else None, keepdims=True)
    np.true_divide(mean, np.intp(x.shape[-1]), out=mean, casting="unsafe")
    out = np.subtract(x, mean, out=out)
    var = _squared_row_mean(out)
    np.subtract(x, mean, out=out)
    # var is real at mean's precision with one column: dividing in place never promotes
    np.divide(out, np.sqrt(var + LAYER_NORM_EPS), out=out)
    # one BLAS dot, cheaper than isfinite(var).all(); its false alarm past 1e154 changes nothing
    if not math.isfinite(np.vdot(var, var)):
        _rescale_overflowed_rows(*np.atleast_2d(x, out, var))
    return out


def _rescale_overflowed_rows(x: np.ndarray, out: np.ndarray, var: np.ndarray) -> None:
    """Normalize again the rows of finite ``x`` whose variance overflowed, from y = x / 2^e,
    with 2^e just above the row's largest magnitude: (y - mean_y) / sqrt(var_y + eps / 4^e)."""
    rows = ~np.isfinite(var[..., 0])
    magnitudes = np.abs(x[rows].view(var.dtype) if x.dtype.kind == "c" else x[rows])
    finite = np.isfinite(magnitudes).all(axis=-1)  # a row holding inf or NaN keeps its NaN
    rows[rows] = finite
    exponents = np.frexp(magnitudes[finite].max(axis=-1, keepdims=True, initial=0))[1]
    y = x[rows] * np.ldexp(var.dtype.type(1), -exponents)
    centered = y - y.mean(axis=-1, keepdims=True)
    var_y = _squared_row_mean(centered.copy())
    eps_y = np.ldexp(var.dtype.type(LAYER_NORM_EPS), -2 * exponents)
    out[rows] = centered / np.sqrt(var_y + eps_y)


def layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Per-row normalization to mean 0 / variance 1, then affine scale and shift.

    A finite row whose variance overflows gets its finite answer, but the first pass warns
    ``overflow encountered in square``: under ``-W error`` or pytest's
    ``error::RuntimeWarning`` the call raises instead.
    """
    return _into(np.add, _into(np.multiply, _standardize(x), scale), shift)


@functools.cache
def _erf() -> np.ufunc:
    """scipy's ``erf`` ufunc, imported on first use."""
    from scipy.special import erf

    return erf


def _gelu_into(x: np.ndarray, out: np.ndarray) -> None:
    """Write the gelu of one tile ``x`` into ``out``, of gelu's dtype; ``out`` may be ``x``."""
    half = 0.5 * x
    np.divide(x, _SQRT2, out=out)
    _erf()(out, out=out)
    np.add(1.0, out, out=out)
    np.multiply(half, out, out=out)


def gelu(x) -> np.ndarray:
    """Gaussian error linear unit, ``0.5 * x * (1 + erf(x / sqrt(2)))``."""
    x = np.asarray(x)
    return 0.5 * x * (1.0 + _erf()(x / _SQRT2))


def _tile_starts(n: int, hidden: int) -> range:
    """First rows of the MLP row tiles of ``n`` tokens; ``.step`` rows each, the last
    tile running to row ``n``.  A tile holds about ``_TILE_ELEMENTS`` hidden activations."""
    return range(0, max(1, n - 1), max(2, _TILE_ELEMENTS // max(1, hidden)))


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_chunks(run: Callable[[int, int], None], count: int) -> None:
    """``run(first, last)`` over tiles ``0:count``, in one contiguous chunk per CPU.

    The caller's thread runs the first chunk, and a thread started for this call
    runs each other chunk in a copy of the caller's context.  Where no thread
    starts (at interpreter shutdown, say), the caller runs that chunk itself.
    Every chunk has finished when this returns; a chunk's exception is raised here.
    """
    chunks = min(count, _cpus()) if count > 1 else 1
    if chunks == 1:
        run(0, count)
        return
    bounds = [i * count // chunks for i in range(chunks + 1)]
    errors = []

    def guarded(first: int, last: int) -> None:
        try:
            run(first, last)
        except BaseException as error:  # raised on the caller's thread, below
            errors.append(error)

    threads = []
    try:
        for first, last in zip(bounds[1:-1], bounds[2:]):
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(guarded, first, last), daemon=True)
            try:
                thread.start()
            except RuntimeError:  # "can't start new thread" / "... at interpreter shutdown"
                guarded(first, last)
            else:
                threads.append(thread)
        run(bounds[0], bounds[1])
    finally:  # no worker may still be writing rows when the call returns
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _mlp_half(tokens: np.ndarray, mixed: np.ndarray, b: BlockParams, stop: int) -> np.ndarray:
    """Rows ``:stop`` of ``tokens + mixed`` plus the MLP of its LN2, tile by tile, in one
    chunk of tiles per CPU (``_run_chunks``).

    The half is row-local, so the last block stops at the class token's two-row
    head (one row would go to gemv).  The token rows are promoted once to the dtype of
    every operand, so each step writes in place, into a tile buffer or the token rows.
    """
    n, width = tokens.shape  # a parameter with a row per token still has n rows
    params = (b.ln2_scale, b.ln2_shift, b.mlp_b1, b.mlp_b2)
    dtype = np.result_type(tokens, mixed, *params, b.mlp_w1, b.mlp_w2)
    # the forward's own array: a view of it is written in place
    tokens = tokens[:stop].astype(dtype, copy=False)
    n_hidden, n_out = b.mlp_w2.shape  # a malformed mlp_w1 fails in its matmul
    starts = _tile_starts(stop, n_hidden)
    bounds = [*starts, stop]
    # parameters with a row per token are sliced tile by tile, to broadcast as over the whole
    per_token = [np.shape(p)[:-1] == (n,) for p in params]

    def run_tiles(first: int, last: int) -> None:
        # one tile each, with room for a last tile that absorbs a one-row remainder
        ln_buf, hidden_buf, out_buf = (np.empty((min(stop, starts.step + 1), cols), dtype)
                                       for cols in (width, n_hidden, n_out))
        for start, end in zip(bounds[first:last], bounds[first + 1:last + 1]):
            x, rows = tokens[start:end], end - start
            scale, shift, b1, b2 = (p[start:end] if cut else p for p, cut in zip(params, per_token))
            np.add(x, mixed[start:end], out=x)
            normed = _standardize(x, ln_buf[:rows])
            np.multiply(normed, scale, out=normed)
            np.add(normed, shift, out=normed)
            hidden = np.matmul(normed, b.mlp_w1, out=hidden_buf[:rows])
            np.add(hidden, b1, out=hidden)
            _gelu_into(hidden, hidden)
            out = np.matmul(hidden, b.mlp_w2, out=out_buf[:rows])
            np.add(out, b2, out=out)
            np.add(x, out, out=x)

    _run_chunks(run_tiles, len(starts))
    return tokens


def vit_forward(params: ViTParams, patches) -> np.ndarray:
    """Run the encoder on pre-flattened patch rows and return the class-token readout."""
    patches = as_matrix(patches, "patches")
    if patches.shape != (params.n_patches, params.patch_dim):
        raise DimensionMismatch(
            f"patches shape {patches.shape} != ({params.n_patches}, {params.patch_dim})"
        )
    if callable(params.mechanism):  # a registry mixer guards its own output (finite_result)
        def mix(attn: AttnInputs) -> np.ndarray:
            return as_matrix(params.mechanism(attn), "mixer output")
    else:
        def mix(attn: AttnInputs) -> np.ndarray:
            return registry_forward(params.mechanism, attn, **params.mechanism_options)

    embedded = patches @ params.patch_embed
    tokens = np.vstack([params.class_token, embedded],
                       dtype=np.result_type(params.class_token, embedded, params.pos_embed))
    np.add(tokens, params.pos_embed, out=tokens)
    n = len(tokens)
    for i, block in enumerate(params.blocks, 1):
        normed = layer_norm(tokens, block.ln1_scale, block.ln1_shift)
        mixed = mix(AttnInputs(normed, normed, normed))
        if mixed.shape != tokens.shape:
            raise DimensionMismatch(
                f"mixer returned shape {mixed.shape}, expected {tokens.shape}"
            )
        # only the class token is read out, and nothing mixes rows after the last mixer
        tokens = _mlp_half(tokens, mixed, block, n if i < params.depth else min(n, 2))
    return layer_norm(tokens[:1], params.head_scale, params.head_shift)[0]

"""From-scratch MLP autoencoder mapping channel features to hybrid precoders.

The network eats the vectorized real/imaginary parts of a channel matrix and
emits a box-constrained vector that decodes into analog phases and digital
precoder entries. Training minimizes the squared Frobenius mismatch between
the GMD precoder target and the decoded analog/digital product, using the
same momentum update as the direct factorization.

Precision is split at the network's boundary. The stock network that
:func:`build_precoder_mlp` builds holds float32 weights and biases
(``PRECODER_DTYPE``), which halves the cost of its GEMMs and momentum
updates; :func:`forward`, :func:`backward` and :func:`sgd_momentum_step`
follow the dtype of the parameters they are given. Everything around the
network stays float64/complex128: channels, features, GMD targets, the
codec's decoded phases and digital entries, the loss, its gradient and the
training history. :func:`build_mlp` builds float64 networks, so the
finite-difference gradient audits of forward and backward are meaningful.
"""

from __future__ import annotations

import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from hybridprec.channel import DATASET_STREAM, draw_channels
from hybridprec.decomp import gmd
from hybridprec.precoder import (
    STOP_WINDOW,
    FactorizeConfig,
    HybridFactors,
    SystemDims,
    _first_windows,
    _window_end,
    analog_from_phases,
    check_divergence,
    factorization_gradient_batch,
    power_normalize,
    sgd_momentum_step,
)

ACTIVATIONS = ("relu", "clamp")

MLP_FORMAT_VERSION = 2

DEFAULT_NOISE_SIGMA = 0.1

# parameter dtype of the stock network of build_precoder_mlp
PRECODER_DTYPE = np.float32


@dataclass(frozen=True)
class LayerSpec:
    """One fully connected layer: output width, activation tag, optional noise."""

    width: int
    activation: str = "relu"
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class PrecoderCodec:
    """Bijection between the network's output box and (analog phases, digital entries).

    The first nt*nt_rf outputs live in [0, ns] and rescale to phases in
    [0, 2pi]; the remaining 2*nt_rf*ns outputs shift by -ns/2 to give the
    real and imaginary parts of the digital precoder.
    """

    nt: int
    nt_rf: int
    ns: int

    def __post_init__(self) -> None:
        if not 1 <= self.ns <= self.nt_rf <= self.nt:
            raise ValueError(f"codec needs 1 <= ns <= nt_rf <= nt, got nt={self.nt}, nt_rf={self.nt_rf}, ns={self.ns}")

    @property
    def n_phase(self) -> int:
        return self.nt * self.nt_rf

    @property
    def output_dim(self) -> int:
        return self.n_phase + 2 * self.nt_rf * self.ns

    def decode(self, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Phases (..., nt, nt_rf) and digital precoders (..., nt_rf, ns) from outputs (..., output_dim)."""
        out = np.asarray(out, dtype=float)
        if out.shape[-1:] != (self.output_dim,):
            raise ValueError(f"expected output of length {self.output_dim}, got shape {out.shape}")
        lead = out.shape[:-1]
        phases = out[..., : self.n_phase].reshape(lead + (self.nt, self.nt_rf)) * (2.0 * np.pi / self.ns)
        tail = out[..., self.n_phase :] - self.ns / 2.0
        n_d = self.nt_rf * self.ns
        digital = (tail[..., :n_d] + 1j * tail[..., n_d:]).reshape(lead + (self.nt_rf, self.ns))
        return phases, digital


@dataclass
class Mlp:
    """Layered perceptron: specs plus per-layer weights and biases.

    Every weight and bias has one floating dtype, float32 or float64, which
    is the network's :attr:`dtype`: the dtype its activations and gradients
    are computed in.
    """

    input_dim: int
    specs: tuple[LayerSpec, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    clamp_max: float = 1.0
    codec: PrecoderCodec | None = None

    def __post_init__(self) -> None:
        if not len(self.specs) == len(self.weights) == len(self.biases):
            raise ValueError(f"{len(self.specs)} layers, {len(self.weights)} weights and {len(self.biases)} biases")
        dims = [self.input_dim] + [s.width for s in self.specs]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i], dims[i + 1]):
                raise ValueError(f"weight {i} shape {w.shape} != {(dims[i], dims[i + 1])}")
            if b.shape != (dims[i + 1],):
                raise ValueError(f"bias {i} shape {b.shape} != {(dims[i + 1],)}")
        dtype = self.dtype
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"weight 0 dtype {dtype} is not float32 or float64")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            for name, a in ((f"weight {i}", w), (f"bias {i}", b)):
                if a.dtype != dtype:
                    raise ValueError(f"{name} dtype {a.dtype} != weight 0 dtype {dtype}")
        if self.clamp_max < 1 and any(s.activation == "clamp" for s in self.specs):
            raise ValueError(f"clamp_max must be >= 1, got {self.clamp_max}")
        if self.codec is not None and self.codec.output_dim != dims[-1]:
            raise ValueError(f"codec output_dim {self.codec.output_dim} != output layer width {dims[-1]}")

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype


def default_architecture(
    input_dim: int, output_dim: int, noise_sigma: float = DEFAULT_NOISE_SIGMA
) -> tuple[LayerSpec, ...]:
    """The stock autoencoder stack: 128-400-256 encoder, 200-unit noise layer,
    128-64 decoder, box-clamped output."""
    return (
        LayerSpec(128, "relu"),
        LayerSpec(400, "relu"),
        LayerSpec(256, "relu"),
        LayerSpec(200, "relu", noise_sigma=noise_sigma),
        LayerSpec(128, "relu"),
        LayerSpec(64, "relu"),
        LayerSpec(output_dim, "clamp"),
    )


def build_mlp(
    input_dim: int,
    specs: tuple[LayerSpec, ...] | list[LayerSpec],
    clamp_max: float,
    seed: int,
    codec: PrecoderCodec | None = None,
) -> Mlp:
    """Initialize weights uniform on +-sqrt(6/(fan_in+fan_out)), biases zero.

    The clamp output layer gets its bias centered at clamp_max/2 instead, so
    its units start inside the box where the activation has gradient; a zero
    start would leave half of them saturated and permanently stuck.
    """
    rng = np.random.default_rng(seed)
    specs = tuple(specs)
    dims = [input_dim] + [s.width for s in specs]
    weights, biases = [], []
    for i, spec in enumerate(specs):
        fan_in, fan_out = dims[i], dims[i + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        bias = np.full(fan_out, clamp_max / 2.0) if spec.activation == "clamp" else np.zeros(fan_out)
        biases.append(bias)
    return Mlp(
        input_dim=input_dim,
        specs=specs,
        weights=weights,
        biases=biases,
        clamp_max=clamp_max,
        codec=codec,
    )


def build_precoder_mlp(
    dims: SystemDims, seed: int = 0, noise_sigma: float = DEFAULT_NOISE_SIGMA
) -> Mlp:
    """Stock network sized for a system: channel features in, codec box out.

    Its weights and biases are :func:`build_mlp`'s float64 draws rounded to
    ``PRECODER_DTYPE`` (float32), so the initialization stream is the same.
    """
    codec = PrecoderCodec(nt=dims.nt, nt_rf=dims.nt_rf, ns=dims.ns)
    input_dim = 2 * dims.nt * dims.nr
    specs = default_architecture(input_dim, codec.output_dim, noise_sigma=noise_sigma)
    net = build_mlp(input_dim, specs, clamp_max=float(dims.ns), seed=seed, codec=codec)
    return replace(
        net,
        weights=[w.astype(PRECODER_DTYPE) for w in net.weights],
        biases=[b.astype(PRECODER_DTYPE) for b in net.biases],
    )


def _activate(z: np.ndarray, spec: LayerSpec, clamp_max: float) -> None:
    """Apply the layer's activation to ``z`` in place.

    ReLU puts 0.0 first, so -0.0 maps to 0.0; the clamp is the box [0, clamp_max].
    """
    if spec.activation == "relu":
        np.maximum(0.0, z, out=z)
    else:
        np.maximum(z, 0.0, out=z)
        np.minimum(z, clamp_max, out=z)


def forward(
    net: Mlp, v: np.ndarray, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Run the composition of layers; returns (output, cache) for backprop.

    ``v`` may be a single feature vector or a (batch, input_dim) matrix. The
    first product casts it to the network's dtype, and the output and the
    activations carry that dtype (a float64 ``v`` would otherwise promote a
    float32 network's products to float64). Noise layers draw from ``rng``
    and fire only when it is given; without it the pass is deterministic.

    The cache holds one ``(input, z)`` pair per layer, where ``z`` is the
    layer's activation, computed in place over its pre-activation. The first
    layer's input is ``v`` as given, so the cast copy lives only for the
    first product and :func:`backward` casts ``v`` again. A firing noise
    layer then adds i.i.d. zero-mean Gaussian noise of its
    ``noise_sigma``, drawn in float64, to a new array that is the next
    layer's input; every other activation is the next layer's input itself.
    """
    v = np.asarray(v)
    squeeze = v.ndim == 1
    x = v.reshape(1, -1) if squeeze else v
    if x.shape[1] != net.input_dim:
        raise ValueError(f"input width {x.shape[1]} != network input_dim {net.input_dim}")
    cache = []
    for spec, w, b in zip(net.specs, net.weights, net.biases):
        z = x.astype(w.dtype, copy=False) @ w
        z += b
        _activate(z, spec, net.clamp_max)
        cache.append((x, z))
        x = z
        if rng is not None and spec.noise_sigma > 0:
            x = z + rng.normal(0.0, spec.noise_sigma, size=z.shape).astype(z.dtype, copy=False)
    out = x[0] if squeeze else x
    return out, cache


def backward(
    net: Mlp,
    cache: list[tuple[np.ndarray, np.ndarray]],
    grad_out: np.ndarray,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Reverse-mode gradients for every weight and bias.

    ``grad_out`` is dLoss/d(output), shaped like the forward output. It is
    copied once into the network's dtype, in which the gradients are
    returned, so the caller's array is never written to. ``cache`` is the
    one :func:`forward` returned: each layer's input (cast to the network's
    dtype here) and its activation.
    ReLU takes subgradient 0 at 0; the clamp is flat outside (0, clamp_max);
    noise injection passes gradients through unchanged.
    """
    delta = np.array(grad_out, dtype=net.dtype, ndmin=2)
    d_weights = [np.empty(0)] * len(net.weights)
    d_biases = [np.empty(0)] * len(net.biases)
    for i in reversed(range(len(net.specs))):
        x_in, z = cache[i]
        if net.specs[i].activation == "relu":
            delta *= z > 0
        else:
            delta *= (z > 0) & (z < net.clamp_max)
        d_weights[i] = x_in.astype(delta.dtype, copy=False).T @ delta
        d_biases[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ net.weights[i].T
    return d_weights, d_biases


def feature_vector(h: np.ndarray) -> np.ndarray:
    """Concatenated real and imaginary channel entries, scaled to unit RMS.

    ``h`` is one (nr, nt) channel, or a (b, nr, nt) stack of channels, which
    gives one feature row per channel.
    """
    m = np.asarray(h)
    flat_shape = m.shape[:-2] + (m.shape[-2] * m.shape[-1],)
    flat = np.concatenate([m.real.reshape(flat_shape), m.imag.reshape(flat_shape)], axis=-1)
    rms = np.sqrt(np.mean(flat**2, axis=-1, keepdims=True))
    return flat / rms


@dataclass(frozen=True)
class Dataset:
    """Training set as arrays; row k is sample k."""

    features: np.ndarray  # (n, 2 nt nr) network inputs
    targets: np.ndarray  # (n, nt, ns) GMD precoder targets

    def __len__(self) -> int:
        return len(self.targets)


def build_dataset(dims: SystemDims, size: int, seed: int) -> Dataset:
    """Channels of the dataset stream with their GMD precoder targets and feature vectors.

    Sample k is stream index k of ``DATASET_STREAM`` at ``seed``. The targets
    come from one batched :func:`gmd` call, so a rank-deficient channel raises
    RankDeficiencyError with its stream index in ``index``, as a curve's
    ensemble does. :func:`train` trains on every sample.
    """
    channels = draw_channels(dims, size, seed, DATASET_STREAM)
    return Dataset(feature_vector(channels), gmd(channels, dims.ns).r1)


def _decode(net: Mlp, out: np.ndarray) -> HybridFactors:
    """Analog and digital factors from network outputs, through the network's codec."""
    if net.codec is None:
        raise ValueError("the network was built without a precoder codec")
    phases, digital = net.codec.decode(out)
    return HybridFactors(analog=analog_from_phases(phases), digital=digital)


def _mean_loss(net: Mlp, feats: np.ndarray, targets: np.ndarray) -> float:
    """Mean root loss over a stacked batch: noise-free, and without a backward pass."""
    hf = _decode(net, forward(net, feats)[0])  # the activations are freed before decoding
    return float(np.mean(np.linalg.norm(targets - hf.product, axis=(1, 2))))


def _gradients(
    net: Mlp, feats: np.ndarray, targets: np.ndarray, rng: np.random.Generator
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Parameter gradients of the mean squared loss over a stacked batch, noise drawn from ``rng``."""
    b = len(feats)
    out, cache = forward(net, feats, rng=rng)
    hf = _decode(net, out)
    g_phases, g_digital = factorization_gradient_batch(hf.analog, hf.digital, targets - hf.product)
    parts = (g_phases * (2.0 * np.pi / net.codec.ns), g_digital.real, g_digital.imag)
    grad_out = np.concatenate([part.reshape(b, -1) for part in parts], axis=1) / b
    return backward(net, cache, grad_out)


def train(net: Mlp, data: Dataset, cfg: FactorizeConfig) -> tuple[Mlp, np.ndarray]:
    """Momentum-SGD training against the factorization loss on every sample of ``data``.

    Samples are shuffled into batches of ``cfg.batch`` each epoch; ``cfg.max_iters``
    caps the total number of SGD steps, each of which updates ``net`` in place.
    The momentum velocities start at zero and live only for this call.
    The history holds one entry per epoch: the mean root loss over the whole
    dataset, evaluated noise-free and loss-only (no backward pass), so a zero
    learning rate yields a constant history. Stops early when the windowed
    epoch-loss improvement falls below ``cfg.tolerance``. Raises
    FactorizationDivergedError when the last epoch's loss is non-finite or
    above the untrained net's, evaluated the same way before the first step.

    Each epoch's evaluation runs on one helper thread, which lives for this
    call, against a copy of the parameters the epoch ended with, while the
    next epoch trains; at most one is in flight. The history is the one the
    evaluations would give in turn, and a stop at a window end waits for
    that epoch's loss, so no step is taken beyond it.
    """
    if len(data) < 1:
        raise ValueError("dataset has no training samples")
    feats = data.features.astype(net.dtype, copy=False)
    targets = data.targets
    rng = np.random.default_rng(cfg.seed)
    velocities = [np.zeros_like(p) for p in net.weights + net.biases]
    # trace[k] is the loss after epoch k, as the factorizer's losses are after step k
    trace = [_mean_loss(net, feats, targets)]
    prev_best, best = _first_windows()
    snapshot = replace(net, weights=[w.copy() for w in net.weights], biases=[b.copy() for b in net.biases])
    pending = None  # the evaluation of ``snapshot`` in flight

    def collect() -> None:
        nonlocal pending
        if pending is not None:
            trace.append(pending.result())
            np.minimum(best, trace[-1], out=best)
            pending = None

    steps = 0
    epoch = 0
    with ThreadPoolExecutor(max_workers=1) as helper:
        while steps < cfg.max_iters:
            epoch += 1
            order = rng.permutation(len(feats))
            for start in range(0, len(order), cfg.batch):
                if steps >= cfg.max_iters:
                    break
                idx = order[start : start + cfg.batch]
                d_weights, d_biases = _gradients(net, feats[idx], targets[idx], rng)
                sgd_momentum_step(
                    net.weights + net.biases,
                    d_weights + d_biases,
                    velocities,
                    alpha=cfg.momentum,
                    epsilon=cfg.learning_rate,
                )
                steps += 1
            collect()  # the last epoch's loss, before its snapshot is overwritten
            for copy, live in zip(snapshot.weights + snapshot.biases, net.weights + net.biases):
                np.copyto(copy, live)
            pending = helper.submit(_mean_loss, snapshot, feats, targets)
            if epoch % STOP_WINDOW == 0:
                collect()
                stop, prev_best, best = _window_end(prev_best, best, cfg.tolerance)
                if stop:
                    break
        collect()
    check_divergence("training", trace[0], trace[-1], cfg.learning_rate)
    return net, np.asarray(trace[1:])


def infer_precoders(net: Mlp, h: np.ndarray) -> HybridFactors:
    """One forward pass, decoded into power-normalized factors.

    ``h`` is one (nr, nt) channel, or a (b, nr, nt) stack of channels, which
    gives stacked (b, nt, nt_rf) analog and (b, nt_rf, ns) digital factors.
    """
    return power_normalize(_decode(net, forward(net, feature_vector(h).astype(net.dtype, copy=False))[0]))


def save_mlp(net: Mlp, path: str) -> None:
    """Serialize the network's weights and biases to one self-describing .npz file (bit-exact round trip)."""
    payload = {
        "format_version": np.array(MLP_FORMAT_VERSION),
        "input_dim": np.array(net.input_dim),
        "clamp_max": np.array(net.clamp_max),
        "widths": np.array([s.width for s in net.specs]),
        "activations": np.array([s.activation for s in net.specs]),
        "noise_sigmas": np.array([s.noise_sigma for s in net.specs]),
        "codec_dims": np.array(
            [net.codec.nt, net.codec.nt_rf, net.codec.ns] if net.codec else [-1, -1, -1]
        ),
    }
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        payload[f"w{i}"] = w
        payload[f"b{i}"] = b
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_mlp(path: str) -> Mlp:
    """Rebuild a network saved by :func:`save_mlp`.

    The weights and biases keep the dtype they were saved in: a float32
    stock network loads as float32, a float64 file as float64. A path that
    cannot be read, a truncated file, one lacking an array or of another
    format version, or one whose arrays do not fit its layers in shape or
    are not all float32 or all float64, whose layer arrays differ in
    length, or whose codec breaks ``1 <= ns <= nt_rf <= nt`` or does not
    fit its output layer, raises ValueError naming it.
    """
    try:  # np.load would take a file without the zip signature for pickled data
        with np.lib.npyio.NpzFile(path, allow_pickle=False) as data:
            version = int(data["format_version"])
            if version != MLP_FORMAT_VERSION:
                raise ValueError(f"unsupported model format version {version}")
            specs = tuple(
                LayerSpec(int(w), str(a), float(s))
                for w, a, s in zip(data["widths"], data["activations"], data["noise_sigmas"], strict=True)
            )
            codec_dims = data["codec_dims"]
            codec = (
                PrecoderCodec(nt=int(codec_dims[0]), nt_rf=int(codec_dims[1]), ns=int(codec_dims[2]))
                if codec_dims[0] >= 0
                else None
            )
            n = len(specs)
            return Mlp(
                input_dim=int(data["input_dim"]),
                specs=specs,
                weights=[data[f"w{i}"] for i in range(n)],
                biases=[data[f"b{i}"] for i in range(n)],
                clamp_max=float(data["clamp_max"]),
                codec=codec,
            )
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"cannot load the model {path}: {exc}") from exc

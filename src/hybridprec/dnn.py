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

from dataclasses import dataclass, replace

import numpy as np

from hybridprec.channel import DATASET_STREAM, draw_channels
from hybridprec.decomp import gmd
from hybridprec.precoder import (
    FactorizeConfig,
    HybridFactors,
    SystemDims,
    _windowed_stop,
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
        dims = [self.input_dim] + [s.width for s in self.specs]
        for i, w in enumerate(self.weights):
            if w.shape != (dims[i], dims[i + 1]):
                raise ValueError(f"weight {i} shape {w.shape} != {(dims[i], dims[i + 1])}")
        dtype = self.dtype
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"weight 0 dtype {dtype} is not float32 or float64")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            for name, a in ((f"weight {i}", w), (f"bias {i}", b)):
                if a.dtype != dtype:
                    raise ValueError(f"{name} dtype {a.dtype} != weight 0 dtype {dtype}")

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype

    @property
    def output_dim(self) -> int:
        return self.specs[-1].width


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


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(0.0, x)


def clamp_activation(x: np.ndarray, ns: float, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise min(max(x, 0), ns): the power-constraint box on the output.

    Written into ``out`` when given (``out=x`` clamps in place).
    """
    if ns < 1:
        raise ValueError(f"ns must be >= 1, got {ns}")
    y = np.maximum(x, 0.0, out=out)
    return np.minimum(y, float(ns), out=y)


def noise_inject(x: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian distortion of standard deviation sigma.

    The noise is drawn in float64 and added in ``x``'s dtype.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return x
    return x + rng.normal(0.0, sigma, size=x.shape).astype(x.dtype, copy=False)


def _apply_activation(
    z: np.ndarray, spec: LayerSpec, clamp_max: float, out: np.ndarray | None = None
) -> np.ndarray:
    """The layer's activation of z, written into ``out`` when given (``out=z`` works in place).

    ReLU keeps :func:`relu`'s argument order, so -0.0 maps to 0.0 as it does there.
    """
    if spec.activation == "relu":
        return np.maximum(0.0, z, out=out)
    return clamp_activation(z, clamp_max, out)


def forward(
    net: Mlp,
    v: np.ndarray,
    mode: str = "infer",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Run the composition of layers; returns (output, cache) for backprop.

    ``v`` may be a single feature vector or a (batch, input_dim) matrix. The
    first product casts it to the network's dtype, and the output and the
    activations carry that dtype (a float64 ``v`` would otherwise promote a
    float32 network's products to float64). Noise layers fire only in
    ``mode="train"`` (which then requires ``rng``); inference is
    deterministic.

    The cache holds one ``(input, z)`` pair per layer. The first layer's input
    is ``v`` as given, so the cast copy lives only for the first product and
    :func:`backward` casts ``v`` again. Each activation is stored once: ``z``
    is the layer's activation, computed in place over its
    pre-activation, and it is also the next layer's input. Only a noise layer
    in training mode keeps its pre-activation as ``z``, because its output
    (activation plus noise) is a new array. :func:`backward` reads ``z``
    through masks that are equal on either array: ``z > 0`` for ReLU and
    ``0 < z < clamp_max`` for the clamp.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    v = np.asarray(v)
    squeeze = v.ndim == 1
    x = v.reshape(1, -1) if squeeze else v
    if x.shape[1] != net.input_dim:
        raise ValueError(f"input width {x.shape[1]} != network input_dim {net.input_dim}")
    if mode == "train" and rng is None and any(s.noise_sigma > 0 for s in net.specs):
        raise ValueError("training mode with noise layers requires an rng")
    cache = []
    for spec, w, b in zip(net.specs, net.weights, net.biases):
        z = x.astype(w.dtype, copy=False) @ w
        z += b
        cache.append((x, z))
        if mode == "train" and spec.noise_sigma > 0:
            x = noise_inject(_apply_activation(z, spec, net.clamp_max), spec.noise_sigma, rng)
        else:
            x = _apply_activation(z, spec, net.clamp_max, out=z)
    out = x[0] if squeeze else x
    return out, cache


def backward(
    net: Mlp,
    cache: list[tuple[np.ndarray, np.ndarray]],
    grad_out: np.ndarray,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Reverse-mode gradients for every weight and bias.

    ``grad_out`` is dLoss/d(output), shaped like the forward output, and is
    never written to; it is cast to the network's dtype, in which the
    gradients are returned. ``cache`` is the one :func:`forward` returned: each
    layer's input (cast to the network's dtype here) and its activation (or,
    for a noise layer in training mode, its pre-activation); the masks below
    read the same on either.
    ReLU takes subgradient 0 at 0; the clamp is flat outside (0, clamp_max);
    noise injection passes gradients through unchanged.
    """
    grad_out = np.asarray(grad_out, dtype=net.dtype)
    delta = grad_out.reshape(1, -1) if grad_out.ndim == 1 else grad_out
    last = len(net.specs) - 1
    d_weights = [np.empty(0)] * len(net.weights)
    d_biases = [np.empty(0)] * len(net.biases)
    for i in reversed(range(len(net.specs))):
        x_in, z = cache[i]
        spec = net.specs[i]
        if spec.activation == "relu":
            mask = z > 0
        else:
            mask = (z > 0) & (z < net.clamp_max)
        if i == last:
            delta = delta * mask  # the caller's array, never written to
        else:
            delta *= mask
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


def _batch_loss_and_grad(
    net: Mlp, feats: np.ndarray, targets: np.ndarray, mode: str, rng: np.random.Generator | None
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean root loss over a stacked batch plus parameter gradients of the mean squared loss.

    ``mode="infer"`` evaluates the loss only: it runs neither the gradient
    kernel nor ``backward``, and the gradient lists come back empty.
    """
    codec = net.codec
    b = len(feats)
    out, cache = forward(net, feats, mode=mode, rng=rng)
    if mode == "infer":
        cache = None  # free the activations before the codec's temporaries pile on
    phases, digital = codec.decode(out)
    analog = analog_from_phases(phases)
    err = targets - analog @ digital
    loss = float(np.mean(np.linalg.norm(err, axis=(1, 2))))
    if mode == "infer":
        return loss, [], []
    g_phases, g_digital = factorization_gradient_batch(analog, digital, err)
    phase_scale = 2.0 * np.pi / codec.ns
    grad_out = np.concatenate(
        [
            g_phases.reshape(b, -1) * phase_scale,
            g_digital.real.reshape(b, -1),
            g_digital.imag.reshape(b, -1),
        ],
        axis=1,
    ) / b
    d_weights, d_biases = backward(net, cache, grad_out)
    return loss, d_weights, d_biases


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
    """
    if net.codec is None:
        raise ValueError("training requires a network built with a precoder codec")
    if len(data) < 1:
        raise ValueError("dataset has no training samples")
    feats = data.features.astype(net.dtype, copy=False)
    targets = data.targets
    rng = np.random.default_rng(cfg.seed)
    velocities = [np.zeros_like(p) for p in net.weights + net.biases]
    # trace[k] is the loss after epoch k, as the factorizer's trace[k] is after step k
    trace = [_batch_loss_and_grad(net, feats, targets, mode="infer", rng=None)[0]]
    steps = 0
    epoch = 0
    while steps < cfg.max_iters:
        epoch += 1
        order = rng.permutation(len(feats))
        for start in range(0, len(order), cfg.batch):
            if steps >= cfg.max_iters:
                break
            idx = order[start : start + cfg.batch]
            _, d_weights, d_biases = _batch_loss_and_grad(net, feats[idx], targets[idx], mode="train", rng=rng)
            sgd_momentum_step(
                net.weights + net.biases,
                d_weights + d_biases,
                velocities,
                alpha=cfg.momentum,
                epsilon=cfg.learning_rate,
            )
            steps += 1
        eval_loss, _, _ = _batch_loss_and_grad(net, feats, targets, mode="infer", rng=None)
        trace.append(eval_loss)
        if _windowed_stop(trace, epoch, cfg.tolerance):
            break
    check_divergence("training", trace[0], trace[-1], cfg.learning_rate)
    return net, np.asarray(trace[1:])


def infer_precoders(net: Mlp, h: np.ndarray) -> HybridFactors:
    """One forward pass, decoded into power-normalized factors.

    ``h`` is one (nr, nt) channel, or a (b, nr, nt) stack of channels, which
    gives stacked (b, nt, nt_rf) analog and (b, nt_rf, ns) digital factors.
    """
    if net.codec is None:
        raise ValueError("inference requires a network built with a precoder codec")
    out, _ = forward(net, feature_vector(h).astype(net.dtype, copy=False), mode="infer")
    phases, digital = net.codec.decode(out)
    analog = analog_from_phases(phases)
    return power_normalize(HybridFactors(analog=analog, digital=digital))


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
    stock network loads as float32, a float64 file as float64. A file whose
    arrays are not all of one float32 or float64 dtype is refused.
    """
    with np.load(path, allow_pickle=False) as data:
        version = int(data["format_version"])
        if version != MLP_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        specs = tuple(
            LayerSpec(int(w), str(a), float(s))
            for w, a, s in zip(data["widths"], data["activations"], data["noise_sigmas"])
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

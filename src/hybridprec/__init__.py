"""Hybrid precoding for mmWave massive MIMO.

Saleh-Valenzuela channel generation, geometric mean decomposition,
constant-modulus precoder factorization trained by SGD with momentum
(directly and through an MLP autoencoder), and a Monte-Carlo harness
for BER, spectral-efficiency and MSE-convergence curves.
"""

from hybridprec.channel import (
    DATASET_STREAM,
    draw_channels,
    generate_channel,
    sample_path_params,
    steering_vector,
)
from hybridprec.decomp import GmdFactors, RankDeficiencyError, SvdFactors, geometric_mean_sigma, gmd, svd
from hybridprec.dnn import (
    Dataset,
    LayerSpec,
    Mlp,
    build_dataset,
    build_precoder_mlp,
    default_architecture,
    infer_precoders,
    load_mlp,
    save_mlp,
    train,
)
from hybridprec.precoder import (
    FactorizationDivergedError,
    FactorizeConfig,
    FactorizeResult,
    HybridFactors,
    SystemDims,
    factorize_sgd,
    factorize_sgd_batch,
    hybrid_loss,
    phase_project,
    phase_projection_baseline,
    power_normalize,
)
from hybridprec.simulate import (
    SCHEME_IDS,
    BerCurve,
    MseCurve,
    SeCurve,
    ber_curve,
    mse_vs_iterations,
    qpsk_demap,
    qpsk_map,
    se_curve,
    sic_detect,
    spectral_efficiency,
)

__version__ = "0.1.0"

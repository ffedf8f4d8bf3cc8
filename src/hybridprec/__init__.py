"""Hybrid precoding for mmWave massive MIMO.

Saleh-Valenzuela channel generation, geometric mean decomposition,
constant-modulus precoder factorization trained by SGD with momentum
(directly and through an MLP autoencoder), and a Monte-Carlo harness
for BER, spectral-efficiency and MSE-convergence curves.
"""

__version__ = "0.1.0"

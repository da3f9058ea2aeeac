#!/usr/bin/env python3
"""A tour of the wavelet layer: perfect reconstruction, then denoising."""

import numpy as np

from ecgsparse.wavelet import denoise, dwt, filter_bank, idwt

rng = np.random.default_rng(7)

# 1. Analysis/synthesis round trip.  Whatever we transform we can invert;
#    the residual is numerical noise.
print("perfect reconstruction, 3-level transforms of a random signal:")
x = rng.standard_normal(512)
for name in ("haar", "db4", "bior2.6"):
    fb = filter_bank(name)
    err = np.max(np.abs(idwt(dwt(x, fb, 3), fb, len(x), 3) - x))
    print(f"  {name:8s} max |x_hat - x| = {err:.2e}")

# 2. Where the energy goes: a beat-like bump concentrates in a few
#    coefficients, which is exactly why sparse coding of wavelet features
#    works so well downstream.
t = np.arange(512, dtype=float)
bump = np.exp(-0.5 * ((t - 256) / 10.0) ** 2)
coeffs = dwt(bump, filter_bank("db4"), 4)
top = np.sort(np.abs(coeffs))[::-1]
frac = np.cumsum(top ** 2) / np.sum(top ** 2)
need = int(np.searchsorted(frac, 0.99)) + 1
print(f"\n99% of a Gaussian bump's energy sits in {need} of "
      f"{coeffs.size} db4 coefficients")

# 3. Denoising.  The rule zeroes the deepest approximation band (baseline
#    drift lives there) and soft-thresholds detail bands at a level set by
#    the noise estimate from the finest band.
n = 4096
u = np.arange(n, dtype=float)
clean = np.zeros(n)
for c in range(200, n, 400):
    clean += (2.0 * np.exp(-0.5 * ((u - c) / 12.0) ** 2)
              - 0.8 * np.exp(-0.5 * ((u - c - 60) / 30.0) ** 2))
drift = 0.8 * np.sin(2 * np.pi * 0.1 * u / 360.0)
sigma = np.sqrt(np.mean(clean ** 2) / 10.0)  # 10 dB SNR
noisy = clean + drift + rng.normal(0.0, sigma, n)

out = denoise(noisy, filter_bank("db4"), levels=8)
rmse_in = np.sqrt(np.mean((noisy - clean) ** 2))
rmse_out = np.sqrt(np.mean((out - clean) ** 2))
print(f"\npulse train + drift + noise at 10 dB SNR, db4, 8 levels:")
print(f"  rmse before denoise = {rmse_in:.4f}")
print(f"  rmse after  denoise = {rmse_out:.4f}  "
      f"({100 * (1 - rmse_out / rmse_in):.0f}% lower)")

# 4. The threshold knob.  Small scales keep more noise, large scales start
#    eating signal; the default 1.0 is the universal-threshold setting.
print("\nthreshold_scale sweep:")
for scale in (0.25, 0.5, 1.0, 2.0):
    out = denoise(noisy, filter_bank("db4"), levels=8, threshold_scale=scale)
    rmse = np.sqrt(np.mean((out - clean) ** 2))
    print(f"  scale {scale:4.2f} -> rmse {rmse:.4f}")

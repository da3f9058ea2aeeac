#!/usr/bin/env python3
"""Sparse codec vs. 1-sparse vector quantization on synthetic beats.

Trains an overcomplete dictionary online, compresses every beat to a
handful of coefficients, and compares the reconstruction error against a
k-means codebook of the same size that may keep only one code word per
beat.  Ends with a lambda sweep showing the error/compression trade-off.
"""

import numpy as np

from ecgsparse import wavelet
from ecgsparse.codec import compress, cr_metric, decompress, err_metric, reconstruct_beat
from ecgsparse.dictionary import TrainConfig, kmeans_vq, nearest_atoms, train_online
from ecgsparse.sparse_coding import default_lambda
from ecgsparse.synthetic import amplitude_varying_beats

# --- data: six beat morphologies whose pulses flip sign and rescale -------
# Each beat keeps its class's pulse layout but draws an independent
# amplitude in [0.5, 1.5] and a random sign per pulse, so a single code
# word can never track the whole class.
beats = amplitude_varying_beats(150, seed=9)
print(f"dataset: {len(beats)} beats, "
      f"{len({b.label for b in beats})} classes, 300 samples each")

# --- whole-beat wavelet features ------------------------------------------
# One window covering the full beat: the haar pyramid of 300 samples plus
# its bookkeeping gives d = 301 numbers per beat.
fb = wavelet.filter_bank("haar")
w, s, wl = 300, 1, 4
d = wavelet.feature_dimension(fb, w, wl)
lam = default_lambda(d)
print(f"geometry: haar, window {w}, {wl} levels -> d = {d}, "
      f"default lambda = {lam:.4f}")

windows = [wavelet.extract_windows(b, fb, w, s, wl).columns for b in beats]
Y = np.hstack(windows)

# --- learn the dictionary ---------------------------------------------------
k = 310
cfg = TrainConfig(k=k, lam=lam, batch_size=64, epochs=3, seed=9)
result = train_online(Y, cfg)
D = result.dictionary
print(f"trained ODL dictionary: {d} x {k}, "
      f"final batch mean LASSO objective {result.objective_log[-1]:.4f}")

# --- sparse codec ------------------------------------------------------------
geometry = (w, s, fb, wl)
codes = list(compress(D, windows, lam, [b.label for b in beats]))
recons = [reconstruct_beat(decompress(D, c), geometry) for c in codes]
originals = [b.values for b in beats]
err_sparse = err_metric(recons, originals)
cr_sparse = cr_metric(codes)

# --- VQ baseline: same k, but each beat stores a single code word ----------
centroids, _ = kmeans_vq(Y, k, seed=9, iters=40)
nearest, _ = nearest_atoms(centroids, Y)
vq_recons = [reconstruct_beat(centroids[:, [j]], geometry) for j in nearest]
err_vq = err_metric(vq_recons, originals)

print()
print("codec            Err        Cr     mean nnz")
print(f"sparse       {100 * err_sparse:7.3f}%   {cr_sparse:6.3f}   "
      f"{np.mean([c.nnz for c in codes]):8.1f}")
print(f"vq (1 word)  {100 * err_vq:7.3f}%   {(300 - 1) / 300:6.3f}   "
      f"{1.0:8.1f}")
print(f"-> sparse coding is {err_vq / err_sparse:.1f}x more accurate here")

# --- lambda sweep: sparsity buys compression, costs fidelity ----------------
print()
print("lambda     Err        Cr")
for scale in (0.25, 1.0, 4.0):
    lam_i = scale * lam
    codes_i = list(compress(D, windows, lam_i))
    recons_i = [reconstruct_beat(decompress(D, c), geometry) for c in codes_i]
    print(f"{lam_i:6.4f}  {100 * err_metric(recons_i, originals):7.3f}%   "
          f"{cr_metric(codes_i):6.3f}")

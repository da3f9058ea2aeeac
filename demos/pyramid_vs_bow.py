#!/usr/bin/env python3
# Where a histogram goes blind: two of the three classes below share the
# same morphology and differ only in WHEN it happens inside the beat.
# A bag-of-words histogram throws the window order away, so those two
# classes collapse; the time-pyramid feature keeps coarse position
# information and separates them.

import numpy as np

from ecgsparse import wavelet
from ecgsparse.classify import ovo_predict_batch, ovo_train
from ecgsparse.cli import split_dataset
from ecgsparse.codec import compress
from ecgsparse.dictionary import train_online
from ecgsparse.features import bow_feature, tpm_feature, unit
from ecgsparse.sparse_coding import default_lambda

from ecgsparse.synthetic import shifted_trio_beats

SEED = 3

beats = shifted_trio_beats(120, seed=SEED)
train, test = split_dataset(beats, train_frac=0.5, seed=SEED)
print(f"{len(beats)} beats in {sorted({b.label for b in beats})}; "
      f"{len(train)} train / {len(test)} test")

# windowed wavelet features: 11 windows of 50 samples per beat
fb = wavelet.filter_bank("bior2.6")
w, s, wl = 50, 25, 2
lam = default_lambda(wavelet.feature_dimension(fb, w, wl))
windows_train = [wavelet.extract_windows(b, fb, w, s, wl).columns for b in train]
windows_test = [wavelet.extract_windows(b, fb, w, s, wl).columns for b in test]

# dictionary on a subsample of training windows
Y = np.hstack(windows_train)
rng = np.random.default_rng(SEED)
Y = Y[:, rng.choice(Y.shape[1], size=min(3000, Y.shape[1]), replace=False)]
D, _ = train_online(Y, 150, lam, batch_size=64, epochs=2, seed=SEED)

codes_train = list(compress(D, windows_train, lam, [b.label for b in train]))
codes_test = list(compress(D, windows_test, lam, [b.label for b in test]))


def tpm_matrix(codes, levels=2):
    return np.vstack([unit(tpm_feature(c, levels, "expectation", SEED)) for c in codes])


def bow_matrix(codes):
    # hard-assign every window to its strongest atom, histogram, normalize
    return np.vstack([unit(bow_feature(c)) for c in codes])


truth = np.array([c.label for c in codes_test])
labels_train = [c.label for c in codes_train]

print()
print("feature        accuracy")
results = {}
for name, build in (("bow", bow_matrix), ("tpm L=1", None), ("tpm L=2", None)):
    if name == "bow":
        Ztr, Zte = build(codes_train), build(codes_test)
    else:
        levels = int(name[-1])
        Ztr, Zte = tpm_matrix(codes_train, levels), tpm_matrix(codes_test, levels)
    model = ovo_train(Ztr, labels_train, C=8.0, gamma=1.0)
    pred = np.array(ovo_predict_batch(model, Zte))
    results[name] = float(np.mean(pred == truth))
    print(f"{name:12s}  {100 * results[name]:6.2f}%")

# confusion matrix for the histogram baseline: the shifted pair mixes
model = ovo_train(bow_matrix(codes_train), labels_train, C=8.0, gamma=1.0)
pred = np.array(ovo_predict_batch(model, bow_matrix(codes_test)))
classes = sorted(set(truth))
print()
print("bow confusion (rows = truth):")
print("      " + "  ".join(f"{c:>4s}" for c in classes))
for ci in classes:
    row = [int(np.sum((truth == ci) & (pred == cj))) for cj in classes]
    print(f"{ci:>4s}  " + "  ".join(f"{v:4d}" for v in row))

"""Span tracing of ecgsparse from outside the package.

`Tracer` replaces each listed public function with a wrapper that records
a span (name, start, end, parent) in memory, and puts the wrapper into every
`ecgsparse` module that holds the same function object, so names a module
imported from another (`codec.encode_all`, `dictionary.encode_all`,
`cli.atomic_write_text`) are traced as well.  `restore()` puts the
originals back.  Nothing in the package changes on disk.

Self time is a span's duration minus the durations of its direct children;
calls run on one thread, so children nest inside their parent.
"""

import json
import sys
import time

import numpy as np

PACKAGE = "ecgsparse"

# (module, function) pairs, grouped by layer
TRACED = [
    ("sparse_coding", "encode_all"),
    ("dictionary", "train_online"),
    ("dictionary", "update_atoms"),
    ("dictionary", "update_stats"),
    ("codec", "compress"),
    ("codec", "serialize_codes"),
    ("codec", "parse_codes"),
    ("codec", "decompress"),
    ("codec", "reconstruct_beat"),
    ("wavelet", "extract_windows"),
    ("wavelet", "idwt"),
    ("features", "tpm_feature"),
    ("features", "format_features_csv"),
    ("features", "parse_features_csv"),
    ("classify", "kernel_matrix"),
    ("classify", "smo_train"),
    ("classify", "cross_validate"),
    ("classify", "ovo_predict_batch"),
    ("classify", "save_model"),
    ("classify", "load_model"),
    ("ingest", "read_beats_csv"),
    ("ingest", "format_beats_csv"),
    ("fileio", "atomic_write_bytes"),
    ("fileio", "atomic_write_text"),
    ("cli", "run_command"),
]

# the per-layer metrics a traced run reports: (name, unit)
PER_LAYER = [
    ("sparse_coding.encode_all.calls", "count"),
    ("sparse_coding.encode_all.self_s", "s"),
    ("sparse_coding.columns", "count"),
    ("sparse_coding.cols_per_s", "1/s"),
    ("sparse_coding.nnz_per_col", "nnz/col"),
    ("sparse_coding.solves", "count"),
    ("dictionary.train_online.self_s", "s"),
    ("dictionary.update_atoms.calls", "count"),
    ("dictionary.update_atoms.self_s", "s"),
    ("dictionary.update_stats.self_s", "s"),
    ("codec.compress.self_s", "s"),
    ("codec.serialize_codes.self_s", "s"),
    ("codec.parse_codes.self_s", "s"),
    ("codec.sbc_bytes", "B"),
    ("codec.decompress.self_s", "s"),
    ("codec.reconstruct_beat.calls", "count"),
    ("codec.reconstruct_beat.self_s", "s"),
    ("wavelet.extract_windows.calls", "count"),
    ("wavelet.extract_windows.self_s", "s"),
    ("wavelet.idwt.calls", "count"),
    ("wavelet.idwt.self_s", "s"),
    ("features.tpm_feature.calls", "count"),
    ("features.tpm_feature.self_s", "s"),
    ("features.format_features_csv.self_s", "s"),
    ("features.parse_features_csv.self_s", "s"),
    ("classify.kernel_matrix.calls", "count"),
    ("classify.kernel_matrix.self_s", "s"),
    ("classify.smo_train.calls", "count"),
    ("classify.smo_train.self_s", "s"),
    ("classify.smo_unconverged", "count"),
    ("classify.cross_validate.calls", "count"),
    ("classify.ovo_predict_batch.self_s", "s"),
    ("classify.save_model.self_s", "s"),
    ("classify.load_model.self_s", "s"),
    ("ingest.read_beats_csv.self_s", "s"),
    ("ingest.format_beats_csv.self_s", "s"),
    ("fileio.atomic_write_bytes.self_s", "s"),
    ("fileio.atomic_write_text.self_s", "s"),
    ("fileio.bytes_written", "B"),
    ("cli.run_command.self_s", "s"),
    ("trace_overhead_s", "s"),
]


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_encode(tracer, args, kwargs, X):
    tracer.counters["sparse_coding.columns"] += np.shape(_arg(args, kwargs, 1, "Y"))[1]
    tracer.counters["sparse_coding.nnz"] += int(np.count_nonzero(X))


def _count_serialized(tracer, args, kwargs, blob):
    tracer.counters["codec.sbc_bytes"] += len(blob)


def _count_parsed(tracer, args, kwargs, codes):
    tracer.counters["codec.sbc_bytes"] += len(_arg(args, kwargs, 0, "blob"))


def _count_unconverged(tracer, args, kwargs, model):
    tracer.counters["classify.smo_unconverged"] += int(not model.converged)


def _count_written(tracer, args, kwargs, _):
    tracer.counters["fileio.bytes_written"] += len(_arg(args, kwargs, 1, "data"))


COUNTERS = {
    "sparse_coding.encode_all": _count_encode,
    "codec.serialize_codes": _count_serialized,
    "codec.parse_codes": _count_parsed,
    "classify.smo_train": _count_unconverged,
    "fileio.atomic_write_bytes": _count_written,
}


class Tracer:
    """Wraps the TRACED functions of an imported ecgsparse package."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counters = {name: 0 for name in (
            "sparse_coding.columns", "sparse_coding.nnz", "sparse_coding.solves",
            "codec.sbc_bytes", "classify.smo_unconverged", "fileio.bytes_written")}
        self.absent = []
        self._stack = []
        self._encode_depth = 0
        self._restore = []

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _wrapper(self, name, original, after):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        is_encode = name == "sparse_coding.encode_all"

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            if is_encode:
                self._encode_depth += 1
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if is_encode:
                    self._encode_depth -= 1
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self):
        modules = self._modules()
        by_name = {m.__name__: m for m in modules}
        for short, func in TRACED:
            module = by_name.get(f"{PACKAGE}.{short}")
            original = getattr(module, func, None) if module else None
            if not callable(original):
                self.absent.append(f"{short}.{func}")
                continue
            name = f"{short}.{func}"
            wrapper = self._wrapper(name, original, COUNTERS.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, value))
                        setattr(m, attr, wrapper)
        # feature-sign's active-set solves, counted only inside encode_all
        solve = np.linalg.solve

        def counted_solve(*args, **kwargs):
            if self._encode_depth:
                self.counters["sparse_coding.solves"] += 1
            return solve(*args, **kwargs)

        self._restore.append((np.linalg, "solve", solve))
        np.linalg.solve = counted_solve

    def restore(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore = []

    def self_times(self):
        """name -> (calls, self seconds, inclusive seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            calls, self_s, incl = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - covered,
                         incl + (end - start))
        return out

    def per_layer(self, overhead_s):
        """The PER_LAYER metrics as {name: value}."""
        times = self.self_times()
        values = {"trace_overhead_s": overhead_s}
        for name, _ in PER_LAYER:
            base, _, field = name.rpartition(".")
            if field in ("calls", "self_s"):
                calls, self_s, _ = times.get(base, (0, 0.0, 0.0))
                values[name] = calls if field == "calls" else self_s
        c = self.counters
        cols = c["sparse_coding.columns"]
        encode_s = times.get("sparse_coding.encode_all", (0, 0.0, 0.0))[2]
        values.update({
            "sparse_coding.columns": cols,
            "sparse_coding.cols_per_s": cols / encode_s if encode_s else 0.0,
            "sparse_coding.nnz_per_col": c["sparse_coding.nnz"] / cols if cols else 0.0,
            "sparse_coding.solves": c["sparse_coding.solves"],
            "codec.sbc_bytes": c["codec.sbc_bytes"],
            "classify.smo_unconverged": c["classify.smo_unconverged"],
            "fileio.bytes_written": c["fileio.bytes_written"],
        })
        return values

    def dump(self, path):
        """Write the spans kept in memory, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

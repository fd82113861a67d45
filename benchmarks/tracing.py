"""In-memory spans around calls into gesturemix's public functions.

A span records its name, start and end (perf_counter seconds), the span that
was open when it started, the operation that caused it, and an optional note.
Tracing rebinds names inside gesturemix's modules: a wrapped function is seen
under the name the calling module uses (e.g. `read_video_dir` as imported by
`gesturemix.cli`), so the package's source is not edited.
"""

import json
import time
from importlib import import_module


def _fit_note(args, kwargs, result):
    em_trace = result[2]
    return {"iters": em_trace.n_iters, "reseeds": len(em_trace.reseeds)}


def _path_note(position):
    return lambda args, kwargs, result: {"path": str(args[position])}


# (module whose name is rebound, name, span name, note taken after the call)
TRACE_POINTS = (
    ("gesturemix.cli", "generate_dataset", "synth.generate_dataset", None),
    ("gesturemix.cli", "write_video", "io.write_video", _path_note(1)),
    ("gesturemix.cli", "write_manifest", "io.write_manifest", None),
    ("gesturemix.cli", "read_video_dir", "io.read_video_dir", _path_note(0)),
    ("gesturemix.cli", "read_feature_csv", "io.read_feature_csv", None),
    ("gesturemix.cli", "export_plot_data", "io.export_plot_data", None),
    ("gesturemix.cli", "save_model", "io.save_model", None),
    ("gesturemix.cli", "load_model", "io.load_model", None),
    ("gesturemix.cli", "compute_variances", "landmarks.compute_variances", None),
    ("gesturemix.cli", "fit_normalization", "landmarks.normalize", None),
    ("gesturemix.cli", "apply_normalization", "landmarks.normalize", None),
    ("gesturemix.cli", "fit", "gmm.fit", _fit_note),
    ("gesturemix.cli", "e_step", "gmm.e_step", None),
    ("gesturemix.cli", "build_label_map", "classify.build_label_map", None),
    ("gesturemix.cli", "classify_video", "classify.classify_video", None),
    ("gesturemix.cli", "silhouette", "metrics.silhouette", None),
    ("gesturemix.classify", "e_step", "gmm.e_step", None),
    ("gesturemix.classify", "apply_normalization", "landmarks.normalize", None),
    ("gesturemix.io", "GestureVideo", "landmarks.video_check", None),
    # the realtime loop and its set-up call these through their own modules
    ("gesturemix.landmarks", "GestureVideo", "landmarks.video_check", None),
    ("gesturemix.landmarks", "compute_variances", "landmarks.compute_variances", None),
    ("gesturemix.classify", "classify_video", "classify.classify_video", None),
    ("gesturemix.io", "load_model", "io.load_model", None),
)

NAME, START, END, PARENT, OP, NOTE = range(6)


class NullTracer:
    """Stands in for a Tracer in untraced rounds; records nothing."""

    op = None

    def begin(self, name, start=None):
        return -1

    def end(self, index, stop=None):
        pass


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op, note]
        self.op = None
        self._open = []
        self._originals = []

    def begin(self, name, start=None) -> int:
        """Open a span; `start` is a perf_counter stamp the caller already took."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op, None])
        self._open.append(index)
        self.spans[index][START] = time.perf_counter() if start is None else start
        return index

    def end(self, index, stop=None):
        self.spans[index][END] = time.perf_counter() if stop is None else stop
        self._open.pop()

    def wrap(self, fn, name, note=None):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if note is not None:
                self.spans[index][NOTE] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module_name, attr, name, note in TRACE_POINTS:
            module = import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, note))

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "note"], "spans": self.spans}, fh)

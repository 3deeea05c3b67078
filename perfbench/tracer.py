"""Spans around the engine's public functions, recorded from outside.

The tracer replaces each listed function or method with a wrapper that
records a span (name, start, end, parent span, job) and per-name totals:
calls, self time (span minus the time its child spans cover) and work
counters read from the return value.  Callers inside the engine bind
functions with ``from .x import y``, so every module of the package that
holds the original object gets the wrapper.  Spans stay in memory as
packed arrays and are written out once, at the end of the run.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "shirshov"


def _length(result) -> int:
    return len(result)


def _hit(result) -> int:
    return result is not None


def _steps(result) -> int:
    return result[1]


# (module, attribute path, span name, extra counter name, counter)
TARGETS = [
    ("words", "find_intersections", "words.find_intersections", "overlaps", _length),
    ("words", "find_inclusions", "words.find_inclusions", "overlaps", _length),
    ("ncpoly", "NcPolynomial.__init__", "ncpoly.NcPolynomial", None, None),
    ("ncpoly", "mul_bounded", "ncpoly.mul_bounded", None, None),
    ("ncpoly", "NcPolynomial.__add__", "ncpoly.NcPolynomial.add", None, None),
    ("ncpoly", "NcPolynomial.scale", "ncpoly.NcPolynomial.scale", None, None),
    ("rewrite", "RuleSet.__init__", "rewrite.RuleSet", None, None),
    ("rewrite", "RuleSet.leftmost_match", "rewrite.RuleSet.leftmost_match", "hits", _hit),
    ("rewrite", "reduce_with_steps", "rewrite.reduce_with_steps", "steps", _steps),
    ("rewrite", "irr_words", "rewrite.irr_words", "words", _length),
    ("rewrite", "RuleSet.has_lead_suffix", "rewrite.RuleSet.has_lead_suffix", None, None),
    ("complete", "shirshov_complete", "complete.shirshov_complete", None, None),
    ("complete", "compositions", "complete.compositions", "out", _length),
    ("complete", "is_gs_basis", "complete.is_gs_basis", None, None),
    ("lie", "pbw_basis", "lie.pbw_basis", "monomials", _length),
    ("lie", "is_alsw", "lie.is_alsw", None, None),
    ("present", "parse_presentation", "present.parse_presentation", None, None),
    ("present", "complete_presentation", "present.complete_presentation", None, None),
    ("present", "normal_form_word", "present.normal_form_word", None, None),
    ("present", "growth_series", "present.growth_series", None, None),
    ("cli", "run", "cli.run", None, None),
]


class Tracer:
    """Span recorder; records only while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.job = -1
        self.jobs: list[str] = []
        self._job_ids: dict[str, int] = {}
        self.names = [t[2] for t in TARGETS]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.reset_totals()

    def reset_totals(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()

    def begin_job(self, label: str) -> None:
        if label not in self._job_ids:
            self._job_ids[label] = len(self.jobs)
            self.jobs.append(label)
        self.job = self._job_ids[label]

    def install(self) -> None:
        """Wrap every target in the already imported package."""
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for nid, (mod_name, path, name, extra, counter) in enumerate(TARGETS):
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, self._wrap(nid, name, cls.__dict__[attr], extra, counter))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(nid, name, original, extra, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def _wrap(self, nid: int, name: str, fn, extra, counter):
        tracer = self
        stack = self._stack
        extra_key = f"{name}.{extra}" if extra else None

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_job.append(tracer.job)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.span_end.append(end)
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
            if extra_key:
                tracer.extra[extra_key] += counter(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> int:
        """Write all spans as gzip CSV: name,start,end,parent,job."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# jobs: " + "\t".join(self.jobs) + "\n")
            fh.write("name,start,end,parent,job\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.names[self.span_name[i]]},{self.span_start[i]:.9f},"
                    f"{self.span_end[i]:.9f},{self.span_parent[i]},{self.span_job[i]}\n"
                )
        return len(self.span_start)

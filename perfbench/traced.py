"""Run one CLI invocation with its layer entry points wrapped in spans.

    python3 perfbench/traced.py SPANS_JSON CLI_ARG...

The wrappers are installed from outside, at the names callers look up:
the layer functions ``quasilattice.cli`` imports plus ``cli._write``; the
functions ``quasilattice.diffraction`` calls per wave number; the
``LabeledPatch`` construction check; and every ``to_csv`` method.  Spans
(name, start, end, parent, counters) stay in memory and are written to
SPANS_JSON after ``cli.main`` returns.  No code under src/ changes.

Spans assume one thread, which holds while QUASILATTICE_THREADS is unset
or 1 (the default).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path


def _exact_points(comb) -> int:
    return sum(1 for p in comb.points if not isinstance(p.position, float))


# counters recorded per span, from (result, args)
COUNTERS = {
    "enumerate_dual": lambda r, a: {"candidates": len(r)},
    "project_patch": lambda r, a: {"points": len(r)},
    "fixed_point_patch": lambda r, a: {"points": len(r)},
    "deform_patch": lambda r, a: {"points": len(r), "exact": _exact_points(r)},
    "weyl_sum": lambda r, a: {"terms": len(a[0])},
    "spectrum_scan": lambda r, a: {"peaks": len(r)},
    "_write": lambda r, a: {"bytes": len(a[2].encode())},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = COUNTERS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(result, args)
            return result

        return traced

    def install(self) -> None:
        import quasilattice.cli as cli
        from quasilattice import diffraction
        from quasilattice.deform import DiracComb
        from quasilattice.diffraction import ComparisonTable, Spectrum
        from quasilattice.substitution import LabeledPatch

        def layer(obj) -> str:
            return obj.__module__.rsplit(".", 1)[-1]

        for name, obj in list(vars(cli).items()):
            if (inspect.isfunction(obj) and obj.__module__.startswith("quasilattice.")
                    and obj.__module__ != cli.__name__):
                setattr(cli, name, self.wrap(f"{layer(obj)}.{name}", obj))
        cli._write = self.wrap("cli._write", cli._write)
        for name in ("weyl_sum", "amplitude_closed", "amplitude_quadrature", "enumerate_dual"):
            fn = getattr(diffraction, name)
            setattr(diffraction, name, self.wrap(f"{layer(fn)}.{name}", fn))
        LabeledPatch.__post_init__ = self.wrap(
            "substitution.LabeledPatch.__post_init__", LabeledPatch.__post_init__)
        for cls in (LabeledPatch, DiracComb, Spectrum, ComparisonTable):
            cls.to_csv = self.wrap(f"{layer(cls)}.{cls.__name__}.to_csv", cls.to_csv)


def main(argv: list[str]) -> int:
    spans_path, cli_argv = Path(argv[0]), argv[1:]
    start = time.perf_counter()
    import quasilattice.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = tracer.wrap("cli.main", cli.main)(cli_argv)
    spans_path.write_text(json.dumps(
        {"import_s": import_s, "exit_code": code, "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Traced `obslab` CLI run: spans around the calls into each layer.

    python3 perfbench/tracer.py SPANS.json diagnose --config CFG --out DIR --seed N

Runs ``obslab.cli.main`` in this interpreter after wrapping the public
functions where ``cli``, ``analysis`` and ``freeboundary`` call them,
including the ``grid`` primitives those modules import by name. Nothing in
``src/`` is edited: the wrappers replace module attributes at run time. A
span is ``[name, start, end, parent]`` with times from ``time.monotonic``
(the clock the parent process reads too). Spans stay in memory and are
written once, at exit, together with per-function counters.

After ``main`` returns, the solved field (captured from the ``solve`` call)
goes through one public ``complementarity_residual`` call, timed on its own.
"""

from __future__ import annotations

import json
import sys
import time

START = time.monotonic()

from obslab import analysis, cli, freeboundary, grid, io, solver  # noqa: E402

# (module, attribute, span name). One wrapper per original function, shared
# by every module that holds a reference to it, so a call is recorded once.
TARGETS = [
    (cli, "load_config", "config.load_config"),
    (cli, "build_problem", "config.build_problem"),
    (cli, "build_field", "config.build_field"),
    (cli, "solve", "solver.solve"),
    (freeboundary, "extract_contact_set", "freeboundary.extract_contact_set"),
    (freeboundary, "extract_free_boundary", "freeboundary.extract_free_boundary"),
    (freeboundary, "growth_report", "freeboundary.growth_report"),
    (freeboundary, "sup_on_ball", "grid.sup_on_ball"),
    (analysis, "WeissEvaluator", "analysis.WeissEvaluator"),
    (analysis, "weiss_profile", "analysis.weiss_profile"),
    (analysis, "stratify", "analysis.stratify"),
    (analysis, "classify_point", "analysis.classify_point"),
    (analysis, "rescale_blowup", "analysis.rescale_blowup"),
    (analysis, "contact_strip_halfwidth", "analysis.contact_strip_halfwidth"),
    (analysis, "probe_forms", "analysis.probe_forms"),
    (analysis, "monneau_profile", "analysis.monneau_profile"),
    (analysis, "frequency_lambda", "analysis.frequency_lambda"),
    (analysis, "ball_integral", "grid.ball_integral"),
    (analysis, "sphere_integral", "grid.sphere_integral"),
    (analysis, "interpolate_many", "grid.interpolate_many"),
    (analysis, "gradient", "grid.gradient"),
    (grid, "ball_integral", "grid.ball_integral"),
    (grid, "sphere_integral", "grid.sphere_integral"),
    (grid, "interpolate_many", "grid.interpolate_many"),
    (grid, "sup_on_ball", "grid.sup_on_ball"),
    (io, "write_field", "io.write_field"),
    (io, "write_csv", "io.write_csv"),
    (io, "write_json", "io.write_json"),
    (io, "write_pgm", "io.write_pgm"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.interpolated_points = 0
        self.solved = None  # (problem, SolveResult) of the last solve call

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.monotonic

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1]])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def install(self) -> None:
        wrapped = {}
        for module, attr, name in TARGETS:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._special(name, self.wrap(name, fn))
            setattr(module, attr, wrapped[id(fn)])

    def _special(self, name, traced):
        """Counters that need the call's arguments or result."""
        if name == "grid.interpolate_many":

            def counted(field, points, *args, **kwargs):
                self.interpolated_points += len(points)
                return traced(field, points, *args, **kwargs)

            return counted
        if name == "solver.solve":

            def captured(problem, *args, **kwargs):
                result = traced(problem, *args, **kwargs)
                self.solved = (problem, result)
                return result

            return captured
        return traced

    def span(self, name, fn, *args):
        return self.wrap(name, fn)(*args)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = tracer.span("cli.main", cli.main, cli_args)
    residual = None
    if code == 0 and tracer.solved is not None:
        problem, result = tracer.solved
        residual = tracer.span(
            "solver.complementarity_residual",
            solver.complementarity_residual,
            result.solution,
            problem,
        )
    with open(spans_path, "w") as fh:
        json.dump(
            {
                "start": START,
                "exit_code": code,
                "residual": residual,
                "interpolated_points": tracer.interpolated_points,
                "spans": tracer.spans,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

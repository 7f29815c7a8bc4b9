"""Per-layer tracing from outside the package.

Each traced public function is replaced, at every place a ``dswave`` module
binds it, by a wrapper that records a span: layer, start, end, parent span
and the benchmark operation it ran under.  The bindings are:

* a module's own global (``special.hyp2f1``), which is also the name internal
  calls resolve through (``hyp2f1`` calling ``log_gamma``);
* ``from .special import ...`` copies in ``waves``, ``reflection`` and
  ``expansion``, and ``reflection``'s copies of ``integrate`` and
  ``effective_potential``;
* names imported inside a function body (``expansion`` importing ``hyp2f1``),
  which resolve through the defining module's global at call time;
* the class attribute for ``FactoredRational.__call__``.

``uninstall`` puts every original back.  Spans stay in memory until ``save``.
"""
from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter
from typing import Any, Callable

import numpy as np

LAYERS = (
    "special.log_gamma",
    "special.log_gamma_diff",
    "special.hyp2f1",
    "special.bessel_j",
    "special.hankel1",
    "model.effective_potential",
    "rational_ode.FactoredRational.__call__",
    "oracle.integrate",
    "oracle.classify_singularities",
    "waves.eval_standing",
    "waves.eval_running",
    "waves.connect",
    "waves.normalized_out_wave",
    "reflection.far_field_coefficients",
    "reflection.interior_wave_ratio",
    "reflection.horizon_flux_balance",
    "expansion.decompose_hypergeometric",
    "expansion.first_order_correction_audit",
    "cli.main",
)


def hyp2f1_route(a, b, c, z, ctl=None, connection_threshold: float = 0.5) -> str:
    """The route ``special.hyp2f1`` documents for these arguments."""
    z, s = complex(z), complex(c) - complex(a) - complex(b)
    integer_s = s.imag == 0.0 and s.real == int(s.real)
    if z.imag == 0.0 and connection_threshold < z.real < 1.0 and not integer_s:
        return "connection"
    return "direct"


class Tracer:
    """Span recorder plus the per-layer counters the benchmark reports."""

    def __init__(self) -> None:
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = -1
        self.errors = [0] * len(LAYERS)
        self.steps = 0
        self.fit_resid_max = 0.0
        self.routes = {"connection": 0, "direct": 0}
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # ---------------------------------------------------------------- hooks

    def _before_hyp2f1(self, args: tuple, kwargs: dict) -> None:
        self.routes[hyp2f1_route(*args, **kwargs)] += 1

    def _after_integrate(self, sol: Any) -> None:
        self.steps += sol.n_steps

    def _after_interior_wave_ratio(self, out: tuple[float, float]) -> None:
        self.fit_resid_max = max(self.fit_resid_max, out[1])

    # ------------------------------------------------------------- wrapping

    def _wrap(self, idx: int, fn: Callable) -> Callable:
        layer, start, end, parent, op = self.layer, self.start, self.end, self.parent, self.op
        stack, errors = self._stack, self.errors
        name = LAYERS[idx]
        before = self._before_hyp2f1 if name == "special.hyp2f1" else None
        after = {
            "oracle.integrate": self._after_integrate,
            "reflection.interior_wave_ratio": self._after_interior_wave_ratio,
        }.get(name)
        tracer = self

        def traced(*args, **kwargs):
            sid = len(start)
            layer.append(idx)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(sid)
            if before is not None:
                before(args, kwargs)
            t0 = perf_counter()
            start.append(t0)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end[sid] = perf_counter()
                stack.pop()
                errors[idx] += 1
                raise
            end[sid] = perf_counter()
            stack.pop()
            if after is not None:
                after(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer at each of its binding sites."""
        modules = [m for n, m in list(sys.modules.items()) if n == "dswave" or n.startswith("dswave.")]
        for idx, name in enumerate(LAYERS):
            modname, _, attr = name.partition(".")
            module = importlib.import_module(f"dswave.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(idx, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(idx, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    # -------------------------------------------------------------- results

    def _arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def metrics(self) -> dict[str, tuple[float, str]]:
        """calls / self_s / errors per layer, plus the named extras.

        A span's self time is its duration minus the durations of its direct
        child spans.
        """
        a = self._arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        own = dur - child
        out: dict[str, tuple[float, str]] = {}
        for idx, name in enumerate(LAYERS):
            sel = a["layer"] == idx
            out[f"{name}.calls"] = (int(sel.sum()), "count")
            out[f"{name}.self_s"] = (float(own[sel].sum()), "s")
            out[f"{name}.errors"] = (self.errors[idx], "count")
        integrate_s = float(dur[a["layer"] == LAYERS.index("oracle.integrate")].sum())
        out["oracle.integrate.steps"] = (self.steps, "count")
        out["oracle.integrate.steps_per_s"] = (self.steps / integrate_s if integrate_s else 0.0, "1/s")
        out["reflection.fit_resid_max"] = (self.fit_resid_max, "rel")
        out["special.hyp2f1.connection_calls"] = (self.routes["connection"], "count")
        out["special.hyp2f1.direct_calls"] = (self.routes["direct"], "count")
        out["trace.spans"] = (len(dur), "count")
        return out

    def save(self, path: str, cells: list[str]) -> None:
        """Write the spans (times in seconds) with the layer and cell names."""
        np.savez(path, layers=np.array(LAYERS), cells=np.array(cells), **self._arrays())

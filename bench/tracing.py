"""Spans around the calls one ``erasure_lab`` module makes into another.

The package has no tracing of its own, so the benchmark replaces, for the
length of a traced pass, each public function at the place where another
module looks it up: the name a module imported (``cli.load_scenario``), the
module attribute a caller goes through (``thermo.gibbs_state`` from
``selftest``) and the validation hook of the classes every module builds
(``DensityOperator.__post_init__``). Every call records a span
(name, start, end, parent index); layer times are self times, a span's
duration less the time its child spans cover.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute, span name). A span name is "<layer>.<function>".
_FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("cli", "load_scenario", "scenario.load_scenario"),
    ("scenario", "build_erasure_inputs", "scenario.build_erasure_inputs"),
    ("scenario", "build_qec_scenario", "scenario.build_qec_scenario"),
    ("scenario", "build_entanglement_state", "scenario.build_entanglement_state"),
    ("selftest", "run_selftest", "selftest.run_selftest"),
    ("linalg", "hermitian_eig", "linalg.hermitian_eig"),
    ("linalg", "partial_trace", "linalg.partial_trace"),
    ("entropy", "relative_entropy", "entropy.relative_entropy"),
    ("thermo", "erasure_entropy", "thermo.erasure_entropy"),
    ("thermo", "gibbs_state", "thermo.gibbs_state"),
    ("thermo", "free_energy", "thermo.free_energy"),
    ("thermo", "thermalize", "thermo.thermalize"),
    ("thermo", "collision_step", "thermo.collision_step"),
    ("cli", "erasure_entropy", "thermo.erasure_entropy"),
    ("demon", "classical_cycle", "demon.classical_cycle"),
    ("demon", "qec_cycle", "demon.qec_cycle"),
    ("demon", "three_qubit_bit_flip_scenario", "demon.three_qubit_bit_flip_scenario"),
    ("scenario", "equal_overlap_states", "demon.equal_overlap_states"),
    ("cli", "classical_cycle", "demon.classical_cycle"),
    ("cli", "qec_cycle", "demon.qec_cycle"),
    ("cli", "recovery_fidelity_vs_overlap", "demon.recovery_fidelity_vs_overlap"),
    ("entanglement", "relative_entropy_of_entanglement", "entanglement.ere"),
    ("entanglement", "entanglement_of_creation", "entanglement.eoc"),
    ("entanglement", "purification_report", "entanglement.purification_report"),
    ("cli", "relative_entropy_of_entanglement", "entanglement.ere"),
    ("cli", "entanglement_of_creation", "entanglement.eoc"),
    ("cli", "purification_report", "entanglement.purification_report"),
]
# Names imported from linalg and entropy by each module that calls them.
for _module in ("entropy", "thermo", "demon", "entanglement"):
    _FUNCTIONS.append((_module, "hermitian_eig", "linalg.hermitian_eig"))
for _module, _names in (("cli", ["von_neumann_entropy"]),
                        ("thermo", ["von_neumann_entropy"]),
                        ("demon", ["binary_entropy", "mutual_information", "von_neumann_entropy"]),
                        ("entanglement", ["binary_entropy", "shannon_entropy", "von_neumann_entropy"]),
                        ("selftest", ["relative_entropy", "von_neumann_entropy"])):
    _FUNCTIONS += [(_module, name, f"entropy.{name}") for name in _names]

# (module, class, method, span name): construction and validation.
_METHODS = [
    ("linalg", "DensityOperator", "__post_init__", "linalg.DensityOperator"),
    ("thermo", "HamiltonianSpec", "__init__", "thermo.HamiltonianSpec"),
    ("demon", "QecScenario", "__post_init__", "demon.QecScenario"),
]


class Tracer:
    """Records spans while installed; ``install`` and ``uninstall`` bracket a pass."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.ere_iterations = 0
        self.ere_converged = 0
        self.eoc_converged = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        observe = {"entanglement.ere": self._observe_ere,
                   "entanglement.eoc": self._observe_eoc}.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_ere(self, result) -> None:
        self.ere_iterations += len(result.convergence)
        self.ere_converged += result.status == "converged"

    def _observe_eoc(self, result) -> None:
        self.eoc_converged += result.status == "converged"

    def install(self) -> None:
        for module, attr, name in _FUNCTIONS:
            mod = importlib.import_module(f"erasure_lab.{module}")
            self._patch(mod, attr, name)
        for module, cls_name, method, name in _METHODS:
            cls = getattr(importlib.import_module(f"erasure_lab.{module}"), cls_name)
            self._patch(cls, method, name)

    def _patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += end - start - child[i]
        return {name: (calls, seconds) for name, (calls, seconds) in out.items()}

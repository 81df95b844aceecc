"""Cold start: ``import repro`` and every MFT request run without scipy.

scipy is a dependency of the reference engines only (the Schur-based
Sylvester/Lyapunov solve, the shooting integrators); importing it costs
about half of a cold ``import repro``. These tests pin that the MFT
path never loads it, and that every module imports scipy where it is
called rather than at module level.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent

COLD_SCRIPT = r"""
import json, sys
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {}
import repro
loaded["import repro"] = scipy_modules()

from repro.circuits import ParameterGrid, ScLowpassParams
from repro.metrics import rms_noise, spot_noise
from repro.mft.context import clear_sweep_contexts
from repro.results import from_payload, to_payload
from repro.service import JobQueue, JobSpec
loaded["imports"] = scipy_modules()

freqs = np.linspace(100.0, 12e3, 4)
for build in (repro.switched_rc_system, repro.sc_lowpass_system,
              repro.sc_bandpass_system, repro.sc_integrator_system,
              repro.sample_hold_system):
    analysis = repro.NoiseAnalysis(build(), segments_per_phase=16)
    batch = analysis.psd_sweep(freqs, solver="spectral-batch")
    per_omega = analysis.psd_sweep(freqs, solver="mft",
                                   attribute_sources=True)
    assert batch.n_failed == 0 and per_omega.n_failed == 0
    per_omega.budget.check_conservation()
    rms_noise(per_omega, 100.0, 12e3)
    spot_noise(batch, 1e3)
    from_payload(json.loads(json.dumps(to_payload(per_omega))))
loaded["sweeps, attribution, metrics, codec"] = scipy_modules()

stiff = repro.PiecewiseLTISystem(
    phases=[repro.Phase(name="p0", duration=1e-3,
                        a_matrix=np.diag([-1e-4, -1e4]),
                        b_matrix=np.eye(2) * 1e-6)],
    output_matrix=np.eye(2)[:1])
chain = repro.MftNoiseAnalyzer(
    stiff, segments_per_phase=16,
    fallback=repro.FallbackPolicy(condition_limit=1e4))
result = chain.psd([1e-3, 10.0, 100.0])
stages = sorted({a.strategy for a in result.info["fallback_attempts"]})
assert len(stages) > 1, stages
loaded["fallback chain"] = scipy_modules()

corners = ParameterGrid.mismatch(
    fields=["c1", "c2", "c3"], sigma=0.05, n_corners=4, seed=42,
    builder=repro.sc_lowpass_system, base_params=ScLowpassParams())
swept = repro.NoiseAnalysis(
    repro.sc_lowpass_system(), segments_per_phase=16).psd_corners(
        corners, freqs, attribute_sources=True)
from_payload(to_payload(swept))
loaded["psd_corners"] = scipy_modules()

clear_sweep_contexts()
spec = JobSpec(repro.sc_lowpass_system(), freqs, segments_per_phase=16)
with JobQueue(store=sys.argv[1]) as queue:
    first = queue.submit(spec).wait(timeout=300.0)
    again = queue.submit(spec).wait(timeout=300.0)
    assert again.served_from_store
    assert again.result.psd.tobytes() == first.result.psd.tobytes()
    queue.telemetry()
loaded["JobQueue + store"] = scipy_modules()

a = np.array([[-1.0, 0.3, 0.0], [0.2, -2.0, 0.5], [0.0, -0.4, -3.0]])
b = np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 0.2]])
ours = repro.noise.stationary_covariance(a, b)
loaded["stationary_covariance"] = scipy_modules()
import scipy.linalg
theirs = scipy.linalg.solve_continuous_lyapunov(a, -b @ b.T)
print(json.dumps({"loaded": loaded,
                  "error": float(abs(ours - theirs).max()),
                  "scale": float(abs(theirs).max())}))
"""


def test_mft_entry_points_run_cold_without_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_SCRIPT, str(tmp_path / "store")],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    loaded = report.pop("loaded")
    covariance = loaded.pop("stationary_covariance")
    assert len(loaded) == 6
    assert not [stage for stage, mods in loaded.items() if mods], loaded
    assert "scipy.linalg" in covariance
    assert report["error"] <= 1e-12 * report["scale"], report


def _module_level_imports(tree):
    """Import nodes that run when the module is imported."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _imported_roots(node):
    if isinstance(node, ast.ImportFrom):
        return [] if node.level else [node.module.split(".")[0]]
    return [alias.name.split(".")[0] for alias in node.names]


def test_no_module_imports_scipy_at_module_level():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _module_level_imports(tree):
            if "scipy" in _imported_roots(node):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, offenders

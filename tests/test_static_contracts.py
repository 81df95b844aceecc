"""Static contracts of the ``repro`` sources, checked on their syntax trees.

Each check maps a module's source text and its path (``repro/...``) to a
list of findings. Every source file is parsed once, shared by all checks,
so a file that does not parse fails the run.

* ``raw_linalg``: dense solves outside :mod:`repro.linalg` (the
  ``(I − M)q = g`` fixed points above all) go through the
  condition-checked wrappers in :mod:`repro.linalg.checked`.
* ``magic_tolerance``: thresholds are named, in :mod:`repro.tolerances`
  or :mod:`repro.units` or as a documented ``UPPER_CASE`` constant.
* ``bare_ndarray_return``: public functions state their dtype with a
  :mod:`repro.typing` alias, not a bare ``np.ndarray``.
* ``psd_units``: PSD functions state the unit (V²/Hz) and the sidedness
  (the paper's PSDs are double-sided, Enz et al. quote single-sided), and
  no PSD-named value is added to a voltage- or current-named one.
* ``replay_hygiene``: no wall clock or hidden-state RNG outside
  :mod:`repro.baselines.montecarlo`, so reruns are bit-identical.
* ``registry_insert``: no module but :mod:`repro.mft.context` calls
  ``sweep_context_for``, so no library path fills the context registry:
  analyses own their contexts, and registering one is the caller's
  choice.
* ``context_subclass``: nothing subclasses ``SweepContext``: a corner
  that differs only in noise intensity is a linear map of its dynamics
  root's kernel rows, not a context of its own.
* ``sweep_adapter``: nothing defines the analyzer chunk hooks
  ``_sweep_chunk``/``_spectral_block``: a sweep is a function of its
  dynamics roots (:func:`repro.mft.executor.run_sweep`), not of an
  analyzer duck type.
* ``psd_result_site``: inside :mod:`repro.mft` a ``PsdResult`` is built
  only by ``run_sweep``, the one result path of every MFT sweep, and by
  ``CornerSweepResult.corner``, which re-wraps one corner of a finished
  sweep.
* ``per_source_solve``: no loop over ``n_sources`` calls a periodic
  solve, the batched kernel or brute force: each engine solves
  ``[total, source…]`` as one stacked forcing, so per-source attribution
  is more right-hand sides, not more solves.

Broad handlers and ``print`` are ruff's ``BLE`` and ``T20``; recorder
forwarding is checked at run time by the span tests in ``test_obs.py``.
"""

import ast
import functools
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent

#: ``np.linalg`` members that must go through ``repro.linalg.checked``.
BANNED_LINALG = frozenset({"solve", "inv", "lstsq", "pinv", "eig", "eigh", "eigvals",
                           "eigvalsh"})
#: At or below this magnitude a float literal is taken for a tolerance.
SMALL_LITERAL_CUTOFF = 1e-3
#: At or above this magnitude a float in scientific notation is taken for a limit.
LARGE_LITERAL_CUTOFF = 1e6
BARE_NDARRAY = ("ndarray", "np.ndarray", "numpy.ndarray")
UNIT_TOKENS = ("V²/Hz", "V^2/Hz", "A²/Hz", "A^2/Hz", "V**2/Hz", "A**2/Hz")
SIDEDNESS_TOKENS = ("single-sided", "double-sided", "one-sided", "two-sided", "sidedness")
NP_RANDOM_GLOBAL = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "normal",
    "uniform", "choice", "shuffle", "permutation", "seed"})


@functools.cache
def _parse(source):
    return ast.parse(source)


def _finding(path, node, message):
    return f"{path}:{node.lineno}: {message}"


def _dotted(node):
    """``a.b.c`` for an attribute chain on a name, else ``''``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    return ".".join([node.id, *parts]) if isinstance(node, ast.Name) else ""


def _own_body(func):
    """Walk a function's statements without entering nested functions."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _api_functions(tree):
    """Public module-level functions and methods of module-level classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        yield from (item for item in members
                    if isinstance(item, defs) and not item.name.startswith("_"))


def raw_linalg(source, path):
    if "repro/linalg/" in path:
        return []
    tree = _parse(source)
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(item.asname for item in node.names
                           if item.name == "numpy.linalg" and item.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            aliases.update(item.asname or item.name for item in node.names
                           if item.name == "linalg")
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in BANNED_LINALG:
            owner = _dotted(node.value)
            if owner in ("np.linalg", "numpy.linalg") or owner in aliases:
                findings.append(_finding(path, node, f"raw np.linalg.{node.attr} call"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            banned = sorted(item.name for item in node.names if item.name in BANNED_LINALG)
            if banned:
                findings.append(_finding(path, node, f"imports np.linalg {', '.join(banned)}"))
    return findings


def _documented_constant_lines(tree, lines):
    """Lines of documented ``UPPER_CASE`` module-constant definitions.

    Documented means a ``#:`` comment on the assignment's own line or a
    comment on the line directly above it.
    """
    exempt = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target = stmt.target
        else:
            continue
        if not (isinstance(target, ast.Name) and target.id.isupper()):
            continue
        first = stmt.lineno
        above = lines[first - 2].strip() if first >= 2 else ""
        if "#:" in lines[first - 1] or above.startswith("#"):
            exempt.update(range(first, stmt.end_lineno + 1))
    return exempt


def magic_tolerance(source, path):
    if path.endswith(("repro/tolerances.py", "repro/units.py")):
        return []
    tree = _parse(source)
    exempt = _documented_constant_lines(tree, source.splitlines())
    findings = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and node.lineno not in exempt):
            continue
        text = ast.get_source_segment(source, node) or ""
        magnitude = abs(node.value)
        if (0.0 < magnitude <= SMALL_LITERAL_CUTOFF
                or (magnitude >= LARGE_LITERAL_CUTOFF and "e" in text.lower())):
            findings.append(_finding(path, node, f"magic float tolerance {text}"))
    return findings


def bare_ndarray_return(source, path):
    findings = []
    for func in _api_functions(_parse(source)):
        if func.returns is not None:
            if ast.unparse(func.returns).strip("\"' ") in BARE_NDARRAY:
                findings.append(_finding(path, func, f"'{func.name}' returns a bare ndarray"))
        elif any(isinstance(node, ast.Return) and isinstance(node.value, ast.Call)
                 and _dotted(node.value.func).split(".")[0] in ("np", "numpy")
                 for node in _own_body(func)):
            findings.append(_finding(
                path, func, f"'{func.name}' returns an array with no return annotation"))
    return findings


def _quantity(node):
    name = (getattr(node, "id", None) or getattr(node, "attr", "")).lower()
    if any(stem in name for stem in ("psd", "spectral_density", "noise_density")):
        return "psd"
    if any(stem in name for stem in ("voltage", "current")):
        return "signal"
    return None


def psd_units(source, path):
    tree = _parse(source)
    findings = []
    for func in _api_functions(tree):
        if "psd" not in func.name.lower() or not any(
                isinstance(node, ast.Return) and node.value is not None
                for node in _own_body(func)):
            continue
        doc = ast.get_docstring(func) or ""
        if not (any(tok in doc for tok in UNIT_TOKENS)
                and any(tok in doc.lower() for tok in SIDEDNESS_TOKENS)):
            findings.append(_finding(
                path, func, f"PSD function '{func.name}' states no unit (V²/Hz) or sidedness"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
                and {_quantity(node.left), _quantity(node.right)} == {"psd", "signal"}):
            findings.append(_finding(path, node, "PSD and voltage/current values mixed"))
    return findings


def replay_hygiene(source, path):
    if path.endswith("repro/baselines/montecarlo.py") or "repro/baselines/montecarlo/" in path:
        return []
    tree = _parse(source)
    random_aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                root = item.name if item.asname else item.name.split(".")[0]
                if (root + ".").startswith("random."):
                    random_aliases.add(item.asname or root)
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and f"{node.module}.".startswith("random.")):
            random_aliases.update(item.asname or item.name for item in node.names)
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted == "time.time":
            findings.append(_finding(path, node, "wall-clock time.time()"))
        elif dotted in ("np.random.default_rng", "numpy.random.default_rng"):
            if not node.args and not node.keywords:
                findings.append(_finding(path, node, f"unseeded {dotted}()"))
        elif (dotted.startswith(("np.random.", "numpy.random."))
              and dotted.rsplit(".", 1)[-1] in NP_RANDOM_GLOBAL):
            findings.append(_finding(path, node, f"global-state {dotted}()"))
        elif "." in dotted and dotted.split(".")[0] in random_aliases:
            findings.append(_finding(path, node, f"global-state RNG call {dotted}()"))
    return findings


def registry_insert(source, path):
    if path.endswith("repro/mft/context.py"):
        return []
    tree = _parse(source)
    names = {"sweep_context_for"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(item.asname for item in node.names
                         if item.name == "sweep_context_for" and item.asname)
    return [_finding(path, node, "sweep_context_for() call: library paths never "
                                 "insert into the context registry")
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and _dotted(node.func).rsplit(".", 1)[-1] in names]


def context_subclass(source, path):
    return [_finding(path, node, f"class {node.name} subclasses SweepContext")
            for node in ast.walk(_parse(source))
            if isinstance(node, ast.ClassDef)
            and any(_dotted(base).rsplit(".", 1)[-1] == "SweepContext"
                    for base in node.bases)]


#: The chunk hooks of the deleted analyzer duck type.
SWEEP_HOOKS = frozenset({"_sweep_chunk", "_spectral_block"})
#: ``(module, function)`` pairs of :mod:`repro.mft` that may build a ``PsdResult``.
PSD_RESULT_SITES = frozenset({("repro/mft/executor.py", "run_sweep"),
                              ("repro/mft/corners.py", "corner")})


def sweep_adapter(source, path):
    return [_finding(path, node, f"defines {node.name}: sweeps take their roots, "
                                 "not an analyzer's chunk hooks")
            for node in ast.walk(_parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in SWEEP_HOOKS]


def psd_result_site(source, path):
    if not path.startswith("repro/mft/"):
        return []
    findings = []
    for func in ast.walk(_parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if (path, func.name) in PSD_RESULT_SITES:
            continue
        findings.extend(
            _finding(path, node, f"{func.name} builds a PsdResult outside run_sweep")
            for node in _own_body(func)
            if isinstance(node, ast.Call)
            and _dotted(node.func).rsplit(".", 1)[-1] == "PsdResult")
    return findings


#: The solves an engine makes once for every row, never once per source.
SOLVE_CALLS = frozenset({"solve_shifted", "solve_spectral_batch", "brute_force_psd",
                         "brute_force_rows"})
LOOPS = (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _reads_n_sources(node):
    return any(getattr(item, "id", None) == "n_sources"
               or getattr(item, "attr", None) == "n_sources" for item in ast.walk(node))


def per_source_solve(source, path):
    findings = []
    for loop in ast.walk(_parse(source)):
        if not isinstance(loop, LOOPS):
            continue
        heads = [loop.iter] if isinstance(loop, (ast.For, ast.AsyncFor)) else [
            gen.iter for gen in loop.generators]
        if not any(_reads_n_sources(head) for head in heads):
            continue
        called = {node.func.attr if isinstance(node.func, ast.Attribute)
                  else getattr(node.func, "id", "")
                  for node in ast.walk(loop) if isinstance(node, ast.Call)}
        findings.extend(_finding(path, loop, f"{name}() per noise source: solve "
                                             "[total, source…] as one stacked forcing")
                        for name in sorted(called & SOLVE_CALLS))
    return findings


CHECKS = (raw_linalg, magic_tolerance, bare_ndarray_return, psd_units, replay_hygiene,
          registry_insert, context_subclass, sweep_adapter, psd_result_site,
          per_source_solve)


@pytest.fixture(scope="module")
def sources():
    yield [(path.relative_to(SRC.parent).as_posix(), path.read_text(encoding="utf-8"))
           for path in sorted(SRC.rglob("*.py"))]
    _parse.cache_clear()


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_repro_keeps_contract(check, sources):
    findings = [item for path, text in sources for item in check(text, path)]
    assert not findings, "\n".join(findings)


SOLVE = "import numpy as np\nx = np.linalg.solve(a, b)\n"
REPLAY = ("import random, time\nimport numpy as np\nrng = np.random.default_rng()\n"
          "t0 = time.time() + rng.normal() + random.random() + np.random.normal()\n")
REPLAY_FOUND = ("time.time", "default_rng", "random.random", "np.random.normal")
PSD_DEF = 'def out_psd(v):\n    """{}"""\n    return v\n'

# (check, case, source, path or None for a plain module, a fragment of each finding).
CASES = [
    (raw_linalg, "flags_np_linalg_solve", SOLVE, None, ("module.py:2: raw np.linalg.solve",)),
    (raw_linalg, "flags_direct_import", "from numpy.linalg import eig, inv, norm\n", None,
     ("imports np.linalg eig, inv",)),
    (raw_linalg, "flags_module_alias", "import numpy.linalg as la\nla.eig(m)\n", None, ("eig",)),
    (raw_linalg, "allows_norm_and_cond", "c = np.linalg.norm(a) * np.linalg.cond(a)\n", None, ()),
    (raw_linalg, "exempts_linalg_package", SOLVE, "repro/linalg/lyapunov.py", ()),
    (magic_tolerance, "flags_small_float", "TOL = 1e-9\n", None, ("1e-9",)),
    (magic_tolerance, "flags_scientific_large_limit", "if c > 1e12:\n    pass\n", None, ("1e12",)),
    (magic_tolerance, "allows_plain_coefficients",
     "HALF = 0.5\nGAIN = 120.0\nBIG = 64764752532480000.0\ng = 2.5 * 1000000.0\n", None, ()),
    (magic_tolerance, "exempts_tolerances_module", "MARGIN = 1e-3\n", "repro/tolerances.py", ()),
    (magic_tolerance, "exempts_units_module", "limit = 1e12\n", "repro/units.py", ()),
    (magic_tolerance, "documented_constant_exempt", "#: Capacitor C1 (Table 1).\nCAP = 3e-10\n"
     "\n#: Feedthrough threshold.\nTOL = 1e-9\nGUARD = 1e-9  #: floor\n", None, ()),
    (magic_tolerance, "undocumented_constant_still_flagged", "CAP = 3e-10\n", None, ("3e-10",)),
    (magic_tolerance, "trailing_plain_comment_is_not_doc", "CAP = 3e-10  # C1\n", None, ("3e",)),
    (bare_ndarray_return, "flags_bare_ndarray_annotation",
     "def psd(f) -> np.ndarray:\n    return compute(f)\n", None, ("'psd' returns a bare",)),
    (bare_ndarray_return, "flags_unannotated_numpy_return",
     "def grid(n):\n    return np.linspace(0.0, 1.0, n)\n", None, ("'grid' returns an array",)),
    (bare_ndarray_return, "flags_public_method",
     "class C:\n    def f(self, n):\n        return np.zeros(n)\n", None, ("'f' returns",)),
    (bare_ndarray_return, "allows_typed_alias_and_private", "def grid(n) -> FloatArray:\n"
     "    return np.linspace(0.0, 1.0, n)\ndef _helper(n):\n    return np.zeros(n)\n", None, ()),
    (bare_ndarray_return, "ignores_nested_functions", "def outer(n) -> float:\n"
     "    def inner():\n        return np.zeros(n)\n    return 0.0\n", None, ()),
    (psd_units, "psd_without_units_docstring_flagged", PSD_DEF.format("The spectrum."), None,
     ("'out_psd' states no unit",)),
    (psd_units, "psd_with_units_and_sidedness_clean",
     PSD_DEF.format("The single-sided PSD in V^2/Hz."), None, ()),
    (psd_units, "psd_plus_voltage_mix_flagged", "y = psd + voltage\n", None, ("values mixed",)),
    (psd_units, "psd_times_gain_clean", "y = psd * gain\n", None, ()),
    (replay_hygiene, "unseeded_sources_flagged", REPLAY, "repro/mft/timing.py", REPLAY_FOUND),
    (replay_hygiene, "resilience_namespace_no_longer_exempt", REPLAY,
     "repro/resilience/faults.py", REPLAY_FOUND),
    (replay_hygiene, "montecarlo_namespace_exempt", REPLAY, "repro/baselines/montecarlo.py", ()),
    (replay_hygiene, "seeded_rng_clean", "rng = np.random.default_rng(seed)\n", None, ()),
    (replay_hygiene, "flags_random_alias", "import random as r\nr.seed()\n", None, ("r.seed()",)),
    (replay_hygiene, "allows_numpy_random_import",
     "from numpy import random\nx = random.default_rng(1).random()\n", None, ()),
    (registry_insert, "flags_call", "from .context import sweep_context_for\n"
     "c = sweep_context_for(system, 64)\n", None, ("module.py:2: sweep_context_for()",)),
    (registry_insert, "flags_module_attribute", "from . import context\n"
     "c = context.sweep_context_for(system, 64, family=f)\n", None, ("module.py:2",)),
    (registry_insert, "flags_alias", "from .context import sweep_context_for as lookup\n"
     "c = lookup(system, 64)\n", None, ("module.py:2",)),
    (registry_insert, "allows_reexport", "from .context import sweep_context_for\n"
     "__all__ = ['sweep_context_for']\n", None, ()),
    (registry_insert, "exempts_context_module", "c = sweep_context_for(system, 64)\n",
     "repro/mft/context.py", ()),
    (context_subclass, "flags_subclass", "class Scaled(SweepContext):\n    pass\n", None,
     ("module.py:1: class Scaled subclasses SweepContext",)),
    (context_subclass, "flags_module_attribute",
     "class Scaled(context.SweepContext):\n    pass\n", None, ("module.py:1",)),
    (context_subclass, "allows_other_bases", "class Root(SweepBase):\n    pass\n", None, ()),
    (sweep_adapter, "flags_chunk_hook",
     "class A:\n    def _sweep_chunk(self, freqs):\n        pass\n", None,
     ("module.py:2: defines _sweep_chunk",)),
    (sweep_adapter, "flags_block_hook", "def _spectral_block(n):\n    pass\n", None,
     ("_spectral_block",)),
    (sweep_adapter, "allows_chunk_loop", "def sweep_chunk(freqs):\n    pass\n", None, ()),
    (psd_result_site, "flags_analyzer_result",
     "def psd_sweep(self, f):\n    return PsdResult(frequencies=f, psd=f)\n",
     "repro/mft/engine.py", ("repro/mft/engine.py:2: psd_sweep builds a PsdResult",)),
    (psd_result_site, "flags_module_attribute",
     "def sweep(f):\n    return result.PsdResult(frequencies=f, psd=f)\n",
     "repro/mft/corners.py", ("sweep builds a PsdResult",)),
    (psd_result_site, "allows_run_sweep",
     "def run_sweep(roots, f):\n    return PsdResult(frequencies=f, psd=f)\n",
     "repro/mft/executor.py", ()),
    (psd_result_site, "ignores_baselines",
     "def brute_force_psd(f):\n    return PsdResult(frequencies=f, psd=f)\n",
     "repro/noise/brute_force.py", ()),
    (per_source_solve, "flags_solve_per_source",
     "for s in range(context.n_sources):\n    sol = context.solve_shifted(w, pairs(s))\n",
     None, ("module.py:1: solve_shifted() per noise source",)),
    (per_source_solve, "flags_replay_per_source",
     "for s in range(n_sources):\n    if ok:\n        r = brute_force_psd(system, f)\n",
     None, ("brute_force_psd() per noise source",)),
    (per_source_solve, "flags_comprehension",
     "rows = [solve_spectral_batch(c, w, f[s]) for s in range(c.n_sources)]\n", None,
     ("solve_spectral_batch()",)),
    (per_source_solve, "allows_stacked_forcing",
     "stack = np.stack([f] + [c.source_forcing_pairs(l, s) for s in range(c.n_sources)])\n"
     "sol = c.solve_shifted(w, stack)\n", None, ()),
    (per_source_solve, "allows_loop_over_frequencies",
     "for f in freqs:\n    sol = c.solve_shifted(w, f)\n", None, ()),
]


def test_sweep_adapters_are_not_exported():
    import repro.mft
    import repro.mft.corners
    import repro.mft.executor
    for module in (repro, repro.mft, repro.mft.corners, repro.mft.executor):
        for name in ("SweepExecutor", "CornerBatchAnalyzer"):
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in getattr(module, "__all__", ()), (module.__name__, name)


@pytest.mark.parametrize("check, case, source, path, expected", CASES,
                         ids=[f"{check.__name__}-{case}" for check, case, *_ in CASES])
def test_check_verdict(check, case, source, path, expected):
    findings = check(source, path or "repro/module.py")
    assert len(findings) == len(expected), findings
    for fragment in expected:
        assert any(fragment in finding for finding in findings), (fragment, findings)

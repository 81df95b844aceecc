"""Pass 2 cross-module rules: the runtime-contract set SCN006–SCN010.

These rules consume the :class:`~repro.lint.project.ProjectIndex` built
in pass 1, so unlike SCN001–SCN005 they can follow a call edge from the
module that *accepts* ``recorder=`` to the module that *drops* it, or
check that the callable handed to a process pool is actually a
module-level def in whatever module it was imported from.

The rules stay deliberately resolution-conservative: a call target the
index cannot resolve statically produces no finding.  CI gates on these
codes at a **zero baseline**, so every finding must be actionable.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .engine import Finding, ModuleContext
from .project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    dotted_attribute,
)
from .rules import Rule


class ProjectRule(Rule):
    """Base for pass-2 rules: checked against the whole project index."""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Project rules do not run in the per-file pass."""
        return iter(())

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover


def _walk_function_body(fn: ast.AST,
                        include_nested: bool = True) -> Iterator[ast.AST]:
    """Walk a function's statements, optionally skipping nested defs."""
    stack = list(getattr(fn, "body", []))
    while stack:
        node = stack.pop()
        if not include_nested and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# SCN006 — concurrency safety across the process boundary
# ---------------------------------------------------------------------------

#: Constructors whose instances dispatch work to *other processes*; the
#: payload must therefore survive pickling.
_PROCESS_POOLS = frozenset({
    "ProcessPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor",
    "cf.ProcessPoolExecutor",
    "futures.ProcessPoolExecutor",
    "multiprocessing.Pool",
    "mp.Pool",
})

#: Methods on a process pool that take a callable payload first.
_SUBMIT_METHODS = frozenset({
    "submit", "map", "apply", "apply_async", "map_async", "imap",
    "imap_unordered", "starmap", "starmap_async",
})


class ProcessPayloadRule(ProjectRule):
    """SCN006: process-pool payloads must be picklable module-level defs.

    A process pool ships every payload — the callable and its
    arguments — to its workers through pickle.  A lambda or nested
    function submitted to a :class:`~concurrent.futures.ProcessPoolExecutor`
    fails only at runtime, inside the pool, as an opaque
    ``PicklingError`` (or silently under fork-then-pickle-on-respawn).
    Locks and generators captured in closures are the same trap one
    level down.  This rule resolves the submitted callable through the
    project import graph and requires a module-level def.
    """

    code = "SCN006"
    title = "process-pool payloads are module-level and picklable"
    severity = "error"
    hint = ("move the submitted callable to a module-level def (lambdas/"
            "nested functions don't pickle across the process boundary); "
            "pass locks/generators via module state, not closures")

    def _pool_locals(self, fn: ast.AST, module: ModuleInfo) -> "set[str]":
        """Local names bound to a process-pool instance inside ``fn``."""

        def is_pool_ctor(call: ast.expr) -> bool:
            if not isinstance(call, ast.Call):
                return False
            dotted = dotted_attribute(call.func)
            if dotted in _PROCESS_POOLS:
                return True
            # Imported-alias form: `from concurrent.futures import
            # ProcessPoolExecutor as PPE` → resolve the alias.
            head = dotted.split(".")[0] if dotted else ""
            target = module.imports.get(head)
            if target is not None and dotted:
                resolved = dotted.replace(head, target, 1)
                return (resolved in _PROCESS_POOLS
                        or resolved.endswith(".ProcessPoolExecutor")
                        or resolved == "multiprocessing.Pool")
            return False

        names: "set[str]" = set()
        for node in _walk_function_body(fn):
            if isinstance(node, ast.Assign) and is_pool_ctor(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.withitem) and is_pool_ctor(
                    node.context_expr):
                if isinstance(node.optional_vars, ast.Name):
                    names.add(node.optional_vars.id)
        return names

    @staticmethod
    def _nested_defs(fn: ast.AST) -> "set[str]":
        nested: "set[str]" = set()
        for node in _walk_function_body(fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.add(node.name)
        return nested

    def _check_payload(self, ctx: ModuleContext, module: ModuleInfo,
                       index: ProjectIndex, call: ast.Call,
                       nested: "set[str]") -> "Iterator[Finding]":
        if not call.args:
            return
        payload = call.args[0]
        method = call.func.attr  # type: ignore[union-attr]
        if isinstance(payload, ast.Lambda):
            yield ctx.finding(
                payload, self,
                f"lambda submitted to a process pool via .{method}()")
        elif isinstance(payload, ast.Name):
            if payload.id in nested:
                yield ctx.finding(
                    payload, self,
                    f"nested function '{payload.id}' submitted to a "
                    f"process pool via .{method}()")
            else:
                resolved = index.resolve_name(module, payload.id)
                if (isinstance(resolved, FunctionInfo)
                        and not resolved.is_module_level):
                    yield ctx.finding(
                        payload, self,
                        f"non-module-level callable '{payload.id}' "
                        f"submitted to a process pool via .{method}()")
        # Generators handed over as *arguments* don't pickle either.
        for arg in call.args[1:]:
            if isinstance(arg, ast.GeneratorExp):
                yield ctx.finding(
                    arg, self,
                    "generator expression passed across the process "
                    "boundary (generators cannot be pickled)")

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for module, _cls, fn in index.iter_functions():
            pools = self._pool_locals(fn.node, module)
            if not pools:
                continue
            nested = self._nested_defs(fn.node)
            for node in _walk_function_body(fn.node):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _SUBMIT_METHODS
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id in pools):
                    yield from self._check_payload(
                        module.ctx, module, index, node, nested)


# ---------------------------------------------------------------------------
# SCN007 — recorder threading discipline
# ---------------------------------------------------------------------------

class RecorderThreadingRule(ProjectRule):
    """SCN007: a ``recorder=`` accepted must be a ``recorder=`` forwarded.

    The ≥95 %-wall-clock-attribution gate only holds if every call edge
    from an instrumented entry point into another instrumented function
    carries the recorder.  A dropped ``recorder=`` silently reverts the
    callee to :data:`~repro.obs.NULL_RECORDER`: no error, just missing
    spans — exactly the failure mode the attribution gate exists to
    catch, two layers too late.  This rule follows resolvable call edges
    out of any function that *accepts* ``recorder=`` into functions (or
    constructors) that also accept it, and requires the call to pass
    ``recorder=…``, forward ``**kwargs``, or carry an explicit
    suppression.
    """

    code = "SCN007"
    title = "recorder= is forwarded along instrumented call edges"
    severity = "error"
    hint = ("forward the recorder (recorder=recorder / recorder="
            "self.recorder); an untraced callee reverts to NULL_RECORDER "
            "and breaks wall-clock attribution")

    _PARAM = "recorder"

    @staticmethod
    def _target_accepts(resolved: "FunctionInfo | ClassInfo | None"
                        ) -> bool:
        if isinstance(resolved, FunctionInfo):
            return resolved.has_param("recorder")
        if isinstance(resolved, ClassInfo):
            init = resolved.init
            if init is not None:
                return init.has_param("recorder")
            return resolved.is_dataclass and "recorder" in resolved.attributes
        return False

    @staticmethod
    def _call_forwards(call: ast.Call) -> bool:
        for kw in call.keywords:
            if kw.arg == "recorder":
                return True
            if kw.arg is None:  # **kwargs — assume it carries it
                return True
        # A positional bare `recorder` (or `self.recorder`) also counts.
        for arg in call.args:
            if isinstance(arg, ast.Name) and arg.id == "recorder":
                return True
            if (isinstance(arg, ast.Attribute)
                    and arg.attr == "recorder"):
                return True
        return False

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for module, cls, fn in index.iter_functions():
            if not fn.has_param(self._PARAM):
                continue
            for node in _walk_function_body(fn.node,
                                            include_nested=False):
                if not isinstance(node, ast.Call):
                    continue
                resolved = index.resolve_call(module, node,
                                              enclosing_class=cls)
                if not self._target_accepts(resolved):
                    continue
                if not self._call_forwards(node):
                    name = (resolved.qualname
                            if isinstance(resolved, FunctionInfo)
                            else getattr(resolved, "name", "?"))
                    yield module.ctx.finding(
                        node, self,
                        f"'{fn.qualname}' accepts recorder= but drops it "
                        f"on the call into '{name}'")


# ---------------------------------------------------------------------------
# SCN008 — budget coverage of hot loops
# ---------------------------------------------------------------------------

#: Dotted-module prefixes whose frequency/segment loops are budgeted.
_BUDGETED_PREFIXES = ("repro.mft",)

#: Loop variables/iterables mentioning these stems iterate sweep work.
_SWEEP_STEMS = ("freq", "omega", "segment")

#: A call to any of these inside the loop satisfies the rule.
_SEAM_CALLS = frozenset({"exceeded", "check", "start"})


class BudgetSeamRule(ProjectRule):
    """SCN008: sweep loops carry a budget check.

    The budget contract is only as good as its coverage: a frequency or
    segment loop without a ``budget.exceeded()``/``budget.check()``
    decision point cannot be stopped by a :class:`SweepBudget` — it
    runs to completion no matter what.  Loops that are genuinely
    exempt (e.g. cheap index arithmetic) must say so with
    ``# scn: ignore[SCN008] - <reason>``; the reason is mandatory.
    """

    code = "SCN008"
    title = "frequency/segment loops carry a budget check"
    severity = "error"
    hint = ("call budget.exceeded()/budget.check() inside the loop, or "
            "annotate the loop with "
            "'# scn: ignore[SCN008] - <reason>' (reason required)")

    #: Suppressions without a reason do not count (engine contract).
    suppression_requires_reason = True

    @staticmethod
    def _loop_mentions_sweep(loop: ast.For) -> bool:
        names: "list[str]" = []
        for node in ast.walk(loop.target):
            if isinstance(node, ast.Name):
                names.append(node.id)
        for node in ast.walk(loop.iter):
            if isinstance(node, ast.Name):
                names.append(node.id)
            elif isinstance(node, ast.Attribute):
                names.append(node.attr)
        lowered = [n.lower() for n in names]
        return any(stem in name for name in lowered
                   for stem in _SWEEP_STEMS)

    @staticmethod
    def _body_has_seam(loop: ast.For) -> bool:
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _SEAM_CALLS):
                    return True
                if (isinstance(func, ast.Name)
                        and func.id in _SEAM_CALLS):
                    return True
        return False

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for module in index.modules.values():
            if not any(module.name == p or module.name.startswith(p + ".")
                       for p in _BUDGETED_PREFIXES):
                continue
            for node in ast.walk(module.tree):
                if (isinstance(node, ast.For)
                        and self._loop_mentions_sweep(node)
                        and not self._body_has_seam(node)):
                    yield module.ctx.finding(
                        node, self,
                        "frequency/segment loop has no budget check")


# ---------------------------------------------------------------------------
# SCN009 — PSD units and sidedness discipline
# ---------------------------------------------------------------------------

#: Docstring tokens that state the power-spectral-density unit.
_UNIT_TOKENS = ("V²/Hz", "V^2/Hz", "A²/Hz", "A^2/Hz", "V**2/Hz",
                "A**2/Hz")

#: Docstring tokens that state the sidedness convention.
_SIDEDNESS_TOKENS = ("single-sided", "double-sided", "one-sided",
                     "two-sided", "sidedness")

#: Identifier stems for the lexical quantity classes the mixing check
#: refuses to see added/subtracted without an explicit conversion call.
_PSD_STEMS = ("psd", "spectral_density", "noise_density")
_SIGNAL_STEMS = ("voltage", "current")


def _lexical_class(name: str) -> "str | None":
    lowered = name.lower()
    if any(stem in lowered for stem in _PSD_STEMS):
        return "psd"
    if any(stem in lowered for stem in _SIGNAL_STEMS):
        return "signal"
    return None


class UnitsDisciplineRule(ProjectRule):
    """SCN009: PSD-returning APIs declare V²/Hz + sidedness; no raw mixes.

    The paper's output-noise quantity is a **double-sided** PSD in
    V²/Hz; the Enz et al. closed forms ROADMAP targets as a calibration
    band are quoted **single-sided**.  Comparing the two is exactly
    where a silent 2× (sidedness) or a V-vs-V² slip destroys the
    reproduction, so the convention must be written where the array is
    produced: every public function whose name says it returns a PSD
    must state the unit and sidedness in its docstring, and an
    expression adding/subtracting a PSD-named value to a voltage/current
    -named value without an explicit conversion call is an error.
    """

    code = "SCN009"
    title = "PSD APIs declare V²/Hz + sidedness; no raw unit mixing"
    severity = "error"
    hint = ("state 'V²/Hz' (or A²/Hz) and single-/double-sided in the "
            "docstring; convert explicitly (e.g. via repro.units) "
            "before mixing PSD and voltage/current quantities")

    @staticmethod
    def _returns_value(fn: "ast.FunctionDef | ast.AsyncFunctionDef"
                       ) -> bool:
        for node in _walk_function_body(fn, include_nested=False):
            if isinstance(node, ast.Return) and node.value is not None:
                return True
        return False

    def _check_docstrings(self, index: ProjectIndex) -> Iterator[Finding]:
        for module, _cls, fn in index.iter_functions():
            name = fn.name
            if name.startswith("_") or "psd" not in name.lower():
                continue
            if not self._returns_value(fn.node):
                continue
            doc = ast.get_docstring(fn.node) or ""
            has_unit = any(tok in doc for tok in _UNIT_TOKENS)
            has_side = any(tok in doc.lower()
                           for tok in _SIDEDNESS_TOKENS)
            if not (has_unit and has_side):
                missing = []
                if not has_unit:
                    missing.append("unit (V²/Hz)")
                if not has_side:
                    missing.append("sidedness (single-/double-sided)")
                yield module.ctx.finding(
                    fn.node, self,
                    f"PSD function '{fn.qualname}' does not declare "
                    f"{' or '.join(missing)} in its docstring")

    def _check_mixing(self, index: ProjectIndex) -> Iterator[Finding]:
        def class_of(node: ast.expr) -> "str | None":
            if isinstance(node, ast.Name):
                return _lexical_class(node.id)
            if isinstance(node, ast.Attribute):
                return _lexical_class(node.attr)
            return None

        for module in index.modules.values():
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.BinOp):
                    continue
                if not isinstance(node.op, (ast.Add, ast.Sub)):
                    continue
                left, right = class_of(node.left), class_of(node.right)
                if {left, right} == {"psd", "signal"}:
                    yield module.ctx.finding(
                        node, self,
                        "PSD-named and voltage/current-named values "
                        "mixed without an explicit conversion")

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        yield from self._check_docstrings(index)
        yield from self._check_mixing(index)


# ---------------------------------------------------------------------------
# SCN010 — deterministic-replay hygiene
# ---------------------------------------------------------------------------

#: Modules allowed to own nondeterminism: the Monte-Carlo baseline
#: (seeded at its API boundary).
_REPLAY_EXEMPT_PREFIXES = ("repro.baselines.montecarlo",)

#: ``np.random`` legacy-global functions that use hidden process state.
_NP_RANDOM_GLOBAL = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "normal",
    "uniform", "choice", "shuffle", "permutation", "seed",
})


class ReplayHygieneRule(ProjectRule):
    """SCN010: no hidden-state clocks or RNGs in replayable code.

    Bit-identical reruns — the result store serves one run's values
    for another (DESIGN.md §13) — require every run to be a pure
    function of its inputs plus explicit seeds.  ``time.time()``
    (wall-clock; use ``time.perf_counter()`` for durations), the
    ``random`` module's global state, the ``np.random.*`` legacy
    globals, and ``np.random.default_rng()`` *without a seed argument*
    all smuggle in ambient state that a rerun cannot reproduce.
    """

    code = "SCN010"
    title = "no unseeded RNGs or wall-clock reads in replayable code"
    severity = "error"
    hint = ("accept an explicit seed/Generator argument (np.random."
            "default_rng(seed)); use time.perf_counter() for durations; "
            "only repro.baselines.montecarlo may own nondeterminism")

    @staticmethod
    def _imported_random_aliases(module: ModuleInfo) -> "set[str]":
        return {alias for alias, target in module.imports.items()
                if target == "random" or target.startswith("random.")}

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for module in index.modules.values():
            if any(module.name == p or module.name.startswith(p + ".")
                   for p in _REPLAY_EXEMPT_PREFIXES):
                continue
            random_aliases = self._imported_random_aliases(module)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                dotted = dotted_attribute(node.func)
                if dotted == "time.time":
                    yield module.ctx.finding(
                        node, self,
                        "wall-clock time.time() in replayable code")
                elif dotted in ("np.random.default_rng",
                                "numpy.random.default_rng"):
                    if not node.args and not node.keywords:
                        yield module.ctx.finding(
                            node, self,
                            "np.random.default_rng() without an "
                            "explicit seed")
                elif (dotted.startswith(("np.random.", "numpy.random."))
                      and dotted.rsplit(".", 1)[-1] in _NP_RANDOM_GLOBAL):
                    yield module.ctx.finding(
                        node, self,
                        f"legacy global-state RNG call {dotted}()")
                elif ("." in dotted
                      and dotted.split(".")[0] in random_aliases):
                    yield module.ctx.finding(
                        node, self,
                        f"stdlib global-state RNG call {dotted}()")


#: The pass-2 rule set, in code order.
PROJECT_RULES: "tuple[ProjectRule, ...]" = (
    ProcessPayloadRule(),
    RecorderThreadingRule(),
    BudgetSeamRule(),
    UnitsDisciplineRule(),
    ReplayHygieneRule(),
)

"""Tests for the project-wide (pass-2) linter: the ``ProjectIndex``
and the cross-module contract rules SCN006-SCN010.

Every test builds a small synthetic package tree under ``tmp_path``.
The trees carry full ``__init__.py`` chains so :func:`module_name_for`
derives real dotted names — the prefix-scoped rules (SCN008 only looks
at ``repro.mft``, SCN010 exempts ``repro.baselines.montecarlo``) are
driven by those names, never by filesystem paths.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.lint.baseline import Baseline
from repro.lint.cli import main
from repro.lint.engine import lint_paths, parse_paths
from repro.lint.project import ProjectIndex, module_name_for

NEW_CODES = ("SCN006", "SCN007", "SCN008", "SCN009", "SCN010")


def write_tree(root: Path, files: "dict[str, str]") -> Path:
    """Write ``rel_path -> source`` under ``root`` with __init__ chains."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        parent = path.parent
        while parent != root:
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
            parent = parent.parent
    return root


def findings_for(root: Path, code: str) -> list:
    return [f for f in lint_paths([root]) if f.rule == code]


# ---------------------------------------------------------------------------
# Pass 1: the project index


class TestProjectIndex:
    FILES = {
        "pkg/__init__.py": "from .alpha import helper\n",
        "pkg/alpha.py": """\
            def helper(x, recorder=None):
                return x
            """,
        "pkg/beta.py": """\
            from .alpha import helper


            def caller(value):
                return helper(value)
            """,
    }

    def build(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        contexts, failures = parse_paths([tmp_path])
        assert failures == []
        return ProjectIndex.build(contexts)

    def test_module_names_follow_init_chain(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        assert module_name_for(tmp_path / "pkg/beta.py") == "pkg.beta"
        assert module_name_for(tmp_path / "pkg/__init__.py") == "pkg"
        # Outside any package: bare stem.
        assert module_name_for(tmp_path / "loose.py") == "loose"

    def test_import_graph_edges(self, tmp_path):
        index = self.build(tmp_path)
        graph = index.import_graph()
        assert graph["pkg.beta"] == {"pkg.alpha"}
        assert graph["pkg"] == {"pkg.alpha"}
        assert graph["pkg.alpha"] == set()

    def test_resolve_symbol_chases_reexport(self, tmp_path):
        index = self.build(tmp_path)
        # pkg/__init__ re-exports alpha.helper; one-hop chase finds it.
        fn = index.resolve_symbol("pkg.helper")
        assert fn is not None
        assert fn.name == "helper"
        assert fn.has_param("recorder")
        direct = index.resolve_symbol("pkg.alpha.helper")
        assert direct is fn

    def test_resolve_call_through_import(self, tmp_path):
        index = self.build(tmp_path)
        beta = index.modules["pkg.beta"]
        call = next(
            node for node in __import__("ast").walk(beta.ctx.tree)
            if isinstance(node, __import__("ast").Call))
        target = index.resolve_call(beta, call)
        assert target is not None and target.name == "helper"


# ---------------------------------------------------------------------------
# SCN006: process-pool payloads must be picklable


class TestProcessPayloads:
    def test_lambda_to_executor_flagged(self, tmp_path):
        write_tree(tmp_path, {"pkg/par.py": """\
            from concurrent.futures import ProcessPoolExecutor


            def run(values):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(lambda v: v + 1, values))
            """})
        found = findings_for(tmp_path, "SCN006")
        assert len(found) == 1
        assert "lambda" in found[0].message.lower()

    def test_nested_function_flagged(self, tmp_path):
        write_tree(tmp_path, {"pkg/par.py": """\
            from concurrent.futures import ProcessPoolExecutor


            def run(values):
                def helper(v):
                    return v + 1

                with ProcessPoolExecutor() as pool:
                    return pool.submit(helper, values)
            """})
        assert len(findings_for(tmp_path, "SCN006")) == 1

    def test_module_level_function_clean(self, tmp_path):
        write_tree(tmp_path, {"pkg/par.py": """\
            from concurrent.futures import ProcessPoolExecutor


            def work(v):
                return v + 1


            def run(values):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(work, values))
            """})
        assert findings_for(tmp_path, "SCN006") == []


# ---------------------------------------------------------------------------
# SCN007: recorder= must be forwarded along call edges


class TestRecorderForwarding:
    def files(self, call_line: str) -> "dict[str, str]":
        return {
            "pkg/inner.py": """\
                def instrumented(x, recorder=None):
                    return x
                """,
            "pkg/outer.py": f"""\
                from .inner import instrumented


                def driver(x, recorder=None):
                    return {call_line}
                """,
        }

    def test_dropped_recorder_flagged(self, tmp_path):
        write_tree(tmp_path, self.files("instrumented(x)"))
        found = findings_for(tmp_path, "SCN007")
        assert len(found) == 1
        assert found[0].path.endswith("outer.py")
        assert "recorder" in found[0].message

    def test_forwarded_recorder_clean(self, tmp_path):
        write_tree(tmp_path,
                   self.files("instrumented(x, recorder=recorder)"))
        assert findings_for(tmp_path, "SCN007") == []

    def test_kwargs_passthrough_clean(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/inner.py": """\
                def instrumented(x, recorder=None):
                    return x
                """,
            "pkg/outer.py": """\
                from .inner import instrumented


                def driver(x, recorder=None, **kwargs):
                    return instrumented(x, **kwargs)
                """,
        })
        assert findings_for(tmp_path, "SCN007") == []


# ---------------------------------------------------------------------------
# SCN008: frequency/segment loops need a budget seam


class TestBudgetSeams:
    def sweep(self, loop_line: str, body_line: str) -> "dict[str, str]":
        return {"repro/mft/sweep.py": f"""\
            def sweep(freqs, budget):
                total = 0.0
                {loop_line}
                    {body_line}
                    total = total + 1.0
                return total
            """}

    def test_unseamed_frequency_loop_flagged(self, tmp_path):
        write_tree(tmp_path, self.sweep("for freq in freqs:", "pass"))
        found = findings_for(tmp_path, "SCN008")
        assert len(found) == 1
        assert found[0].path.endswith("sweep.py")

    def test_budget_check_inside_loop_clean(self, tmp_path):
        write_tree(tmp_path,
                   self.sweep("for freq in freqs:", "budget.check()"))
        assert findings_for(tmp_path, "SCN008") == []

    def test_outside_mft_namespace_not_flagged(self, tmp_path):
        write_tree(tmp_path, {"repro/other/sweep.py": """\
            def sweep(freqs):
                total = 0.0
                for freq in freqs:
                    total = total + 1.0
                return total
            """})
        assert findings_for(tmp_path, "SCN008") == []

    def test_suppression_without_reason_still_fires(self, tmp_path):
        write_tree(tmp_path, self.sweep(
            "for freq in freqs:  # scn: ignore[SCN008]", "pass"))
        assert len(findings_for(tmp_path, "SCN008")) == 1

    def test_suppression_with_reason_honored(self, tmp_path):
        write_tree(tmp_path, self.sweep(
            "for freq in freqs:  "
            "# scn: ignore[SCN008] - budget enforced by caller",
            "pass"))
        assert findings_for(tmp_path, "SCN008") == []


# ---------------------------------------------------------------------------
# SCN009: PSD units discipline


class TestUnitsDiscipline:
    def test_psd_without_units_docstring_flagged(self, tmp_path):
        write_tree(tmp_path, {"pkg/spec.py": '''\
            def output_psd(values):
                """Return the spectrum."""
                return values
            '''})
        found = findings_for(tmp_path, "SCN009")
        assert len(found) == 1

    def test_psd_with_units_and_sidedness_clean(self, tmp_path):
        write_tree(tmp_path, {"pkg/spec.py": '''\
            def output_psd(values):
                """Return the single-sided PSD in V^2/Hz."""
                return values
            '''})
        assert findings_for(tmp_path, "SCN009") == []

    def test_psd_plus_voltage_mix_flagged(self, tmp_path):
        write_tree(tmp_path, {"pkg/spec.py": '''\
            def combine(psd, voltage):
                """Mixes a density with an amplitude (bogus)."""
                return psd + voltage
            '''})
        found = findings_for(tmp_path, "SCN009")
        assert len(found) == 1

    def test_psd_times_gain_clean(self, tmp_path):
        # Multiplying a PSD by a dimensionless gain is fine; only
        # additive mixing of densities and amplitudes is flagged.
        write_tree(tmp_path, {"pkg/spec.py": '''\
            def scale(psd, gain):
                """Scale a density by |H|^2."""
                return psd * gain
            '''})
        assert findings_for(tmp_path, "SCN009") == []


# ---------------------------------------------------------------------------
# SCN010: replay hygiene (no wall-clock / unseeded RNG)


class TestReplayHygiene:
    SOURCE = """\
        import random
        import time

        import numpy as np


        def jitter():
            rng = np.random.default_rng()
            t0 = time.time()
            return t0 + rng.normal() + random.random() + np.random.normal()
        """

    def test_unseeded_sources_flagged(self, tmp_path):
        write_tree(tmp_path, {"repro/mft/timing.py": self.SOURCE})
        found = findings_for(tmp_path, "SCN010")
        messages = " | ".join(f.message for f in found)
        assert len(found) == 4
        assert "time.time" in messages
        assert "default_rng" in messages

    def test_seeded_rng_clean(self, tmp_path):
        write_tree(tmp_path, {"repro/mft/timing.py": """\
            import numpy as np


            def jitter(seed):
                rng = np.random.default_rng(seed)
                return rng.normal()
            """})
        assert findings_for(tmp_path, "SCN010") == []

    def test_resilience_namespace_no_longer_exempt(self, tmp_path):
        write_tree(tmp_path,
                   {"repro/resilience/faults.py": self.SOURCE})
        assert len(findings_for(tmp_path, "SCN010")) == 4

    def test_montecarlo_namespace_exempt(self, tmp_path):
        write_tree(tmp_path,
                   {"repro/baselines/montecarlo.py": self.SOURCE})
        assert findings_for(tmp_path, "SCN010") == []


# ---------------------------------------------------------------------------
# SCN000 robustness: one broken file must not abort the run


class TestBrokenFileMidTree:
    def test_syntax_error_yields_scn000_and_run_continues(self, tmp_path):
        write_tree(tmp_path, {
            "repro/mft/broken.py": "def broken(:\n",
            "repro/mft/sweep.py": """\
                def sweep(freqs):
                    for freq in freqs:
                        total = 1.0
                    return total
                """,
        })
        findings = lint_paths([tmp_path])
        scn000 = [f for f in findings if f.rule == "SCN000"]
        assert len(scn000) == 1
        assert scn000[0].path.endswith("broken.py")
        # The sibling file was still parsed and project-linted.
        assert any(f.rule == "SCN008" and f.path.endswith("sweep.py")
                   for f in findings)

    def test_null_bytes_yield_scn000(self, tmp_path):
        path = tmp_path / "repro" / "mft" / "binary.py"
        path.parent.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (path.parent / "__init__.py").write_text("")
        path.write_bytes(b"x = 1\x00\n")
        findings = lint_paths([tmp_path])
        assert [f.rule for f in findings] == ["SCN000"]


# ---------------------------------------------------------------------------
# Baseline ratchet round-trips for the new codes


VIOLATION_TREE = {
    "repro/mft/par.py": """\
        from concurrent.futures import ProcessPoolExecutor


        def run(values):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(lambda v: v + 1, values))
        """,
    "repro/mft/inner.py": """\
        def instrumented(x, recorder=None):
            return x
        """,
    "repro/mft/outer.py": """\
        from .inner import instrumented


        def driver(x, recorder=None):
            return instrumented(x)
        """,
    "repro/mft/sweep.py": """\
        def sweep(freqs):
            total = 0.0
            for freq in freqs:
                total = total + 1.0
            return total
        """,
    "repro/mft/spec.py": '''\
        def output_psd(values):
            """Return the spectrum."""
            return values
        ''',
    "repro/mft/timing.py": """\
        import time


        def stamp():
            return time.time()
        """,
}


class TestBaselineRatchet:
    def test_round_trip_all_new_codes(self, tmp_path):
        write_tree(tmp_path, VIOLATION_TREE)
        findings = [f for f in lint_paths([tmp_path])
                    if f.rule in NEW_CODES]
        assert sorted({f.rule for f in findings}) == list(NEW_CODES)
        baseline = Baseline.from_findings(findings)
        store = tmp_path / "baseline.json"
        baseline.save(store)
        loaded = Baseline.load(store)
        new, stale = loaded.partition(findings)
        assert new == []
        assert sum(stale.values()) == 0

    def test_fixed_finding_becomes_stale(self, tmp_path):
        write_tree(tmp_path, VIOLATION_TREE)
        findings = [f for f in lint_paths([tmp_path])
                    if f.rule in NEW_CODES]
        baseline = Baseline.from_findings(findings)
        remaining = [f for f in findings if f.rule != "SCN010"]
        new, stale = baseline.partition(remaining)
        assert new == []
        assert sum(stale.values()) == 1
        assert all("SCN010" in key for key in stale)

    def test_new_finding_not_absorbed(self, tmp_path):
        write_tree(tmp_path, VIOLATION_TREE)
        findings = [f for f in lint_paths([tmp_path])
                    if f.rule in NEW_CODES]
        baseline = Baseline.from_findings(
            [f for f in findings if f.rule != "SCN006"])
        new, _stale = baseline.partition(findings)
        assert [f.rule for f in new] == ["SCN006"]


# ---------------------------------------------------------------------------
# CLI: --per-file mode and the --format json artifact


class TestCliModes:
    def test_per_file_skips_project_rules(self, tmp_path, capsys):
        write_tree(tmp_path, VIOLATION_TREE)
        rc = main(["--no-baseline", "--format", "json", "--per-file",
                   str(tmp_path)])
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "per-file"
        assert not set(NEW_CODES) & set(report["summary"]["by_rule"])
        assert rc == 0

    def test_json_report_project_mode(self, tmp_path, capsys):
        write_tree(tmp_path, VIOLATION_TREE)
        rc = main(["--no-baseline", "--format", "json", str(tmp_path)])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 1
        assert report["mode"] == "project"
        by_rule = report["summary"]["by_rule"]
        for code in NEW_CODES:
            assert by_rule.get(code, 0) >= 1, code
        assert report["summary"]["new"] == report["summary"]["total"]
        listed = {entry["code"] for entry in report["rules"]}
        assert set(NEW_CODES) <= listed
        sample = report["new_findings"][0]
        assert {"path", "line", "rule", "message"} <= set(sample)

    def test_json_reports_stale_entries(self, tmp_path, capsys):
        write_tree(tmp_path, VIOLATION_TREE)
        findings = [f for f in lint_paths([tmp_path])
                    if f.rule in NEW_CODES]
        store = tmp_path / "baseline.json"
        Baseline.from_findings(findings).save(store)
        (tmp_path / "repro" / "mft" / "timing.py").write_text(
            "def stamp(clock):\n    return clock()\n")
        rc = main(["--baseline", str(store), "--check",
                   "--format", "json", str(tmp_path)])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["stale"] == 1
        assert all("SCN010" in key for key in report["stale_entries"])


# ---------------------------------------------------------------------------
# SCN003 documented-constant carve-out (per-file rule, but introduced
# alongside the project pass; kept here with the other new behaviours)


class TestDocumentedConstantCarveOut:
    def test_documented_constant_exempt(self, tmp_path):
        write_tree(tmp_path, {"pkg/vals.py": """\
            #: Sampling capacitor C1 = 300 pF (paper Table 1).
            CAP_ONE = 300e-12

            #: Feedthrough rejection threshold.
            TOL_FEED = 1e-9
            """})
        assert findings_for(tmp_path, "SCN003") == []

    def test_undocumented_constant_still_flagged(self, tmp_path):
        write_tree(tmp_path, {"pkg/vals.py": """\
            CAP_ONE = 300e-12
            """})
        assert len(findings_for(tmp_path, "SCN003")) == 1

    def test_trailing_suppression_comment_is_not_documentation(
            self, tmp_path):
        write_tree(tmp_path, {"pkg/vals.py": """\
            CAP_ONE = 300e-12  # scn: ignore[SCN004]
            """})
        assert len(findings_for(tmp_path, "SCN003")) == 1

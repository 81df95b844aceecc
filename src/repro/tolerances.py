"""Central registry of numerical tolerances and guard thresholds.

Every tolerance in the engine lives here with a name and a rationale.
The ``magic_tolerance`` check in ``tests/test_static_contracts.py``
rejects magic float thresholds scattered through library code: a bare
``1e-9`` tells a reviewer nothing about whether it is an absolute floor,
a relative slack, or a condition limit — and silently diverging copies of
the "same" tolerance are a classic source of irreproducible noise figures.

Constants are grouped by the subsystem that consumes them.  They are
plain module-level floats (not configurable state): the DAC 2003
accuracy claims were made for *specific* guard levels, so changing one
is a reviewed code change, not a runtime knob.

All doubles below are expressed relative to IEEE-754 double precision,
whose unit roundoff is ``u ≈ 1.1e-16`` (:data:`MACHINE_EPS`).
"""

from __future__ import annotations

import numpy as np

#: IEEE-754 double-precision machine epsilon (``np.finfo(float).eps``).
#: Base unit for every relative tolerance below.
MACHINE_EPS: float = float(np.finfo(float).eps)

#: Smallest positive normal double.  Used as a floor before logarithms
#: and divisions so a zero PSD bin degrades to ``-inf dB`` gracefully
#: instead of raising or producing NaN.
TINY_FLOOR: float = float(np.finfo(float).tiny)

# ---------------------------------------------------------------------------
# Linear-solve guardrails (repro.linalg)
# ---------------------------------------------------------------------------

#: cond(A) above which a direct ``(I − M) q = g`` solve is considered
#: numerically meaningless: with ``cond ≈ 1e12`` only ~4 of the 16
#: double-precision digits survive, which is the worst loss the kT/C
#: validation targets (0.1 dB) can absorb.
DIRECT_SOLVE_COND_LIMIT: float = 1e12

#: cond of a per-phase MNA conductance matrix above which the phase
#: topology is rejected as ill-posed.  One decade looser than
#: :data:`DIRECT_SOLVE_COND_LIMIT` because MNA matrices mix Ω and S
#: entries whose scale disparity inflates the condition number without
#: destroying the solve.
MNA_COND_LIMIT: float = 1e13

#: Spectral radius closer to 1 than this is flagged as marginally
#: stable in preflight: Floquet multipliers within 1e-3 of the unit
#: circle make the steady-state covariance ~1e3/Q-sized and the Smith
#: doubling iteration count blow up.
FLOQUET_MARGIN: float = 1e-3

#: Relative termination criterion for Smith doubling in the discrete
#: Lyapunov solve ``K = Φ K Φ^H + Q``.  ~100·eps: tighter buys nothing
#: (the update is already rounding-noise) and looser loses visible
#: accuracy at spectral radii near one.
SMITH_DOUBLING_RTOL: float = 1e-14

#: Tikhonov ridge (relative to ``‖I − M‖₂``) for the regularized
#: least-squares fallback solve.  ``1e-10 ≈ sqrt(eps)·1e-2`` biases the
#: PSD by O(ridge²) — negligible against the 0.1 dB validation target —
#: while bounding the effective condition number by ~1/ridge.
FIXED_POINT_RIDGE: float = 1e-10

#: ``rcond`` cutoff for least-squares solves.  ``None`` selects numpy's
#: machine-precision default (``max(M, N) · eps``); it is named here so
#: every ``lstsq`` call site states the choice deliberately.
LSTSQ_RCOND: float | None = None

#: Diagonal entries of the Bartels–Stewart triangular solve smaller than
#: this (in modulus) mean the Sylvester pencil is singular: λ_i(A) +
#: λ_j(B) ≈ 0, i.e. a marginally stable circuit.
SYLVESTER_DIAG_FLOOR: float = 1e-300

#: Relative truncation threshold for the scaled Taylor/Padé series in
#: the in-house ``expm``: terms below ``1e-18·‖acc‖`` are under one ulp
#: of the accumulated sum and cannot change the rounded result.
EXPM_SERIES_RTOL: float = 1e-18

# ---------------------------------------------------------------------------
# MFT engine (repro.mft)
# ---------------------------------------------------------------------------

#: cond(E) of the slow-phase evaluation matrix above which the MFT
#: sample phases are considered aliased (two sample cycles land on
#: nearly the same slow phase) and the collocation solve is refused.
MFT_ALIASING_COND_LIMIT: float = 1e10

#: cond of the assembled MFT collocation operator above which the solve
#: is rejected as singular (slow-tone harmonic collides with a Floquet
#: multiplier of the cycle map).
MFT_COLLOCATION_COND_LIMIT: float = 1e12

#: Positive floor applied to PSD values before ``log10``/ratio
#: operations in sweep refinement and dB conversion.  Subnormal floor:
#: preserves ordering of every representable positive PSD.
PSD_FLOOR: float = 1e-300

#: dB deviation between a computed PSD point and its log-log
#: interpolant above which the adaptive sweep subdivides the interval.
SWEEP_REFINE_DB: float = 0.5

#: ``‖M₀^{2^k}‖_F`` at or below which the spectral kernel's bound on
#: ``cond(I − e^{−jωT}M₀)`` stops squaring the monodromy
#: (:func:`repro.mft.spectral.fixed_point_condition_bound`): its tail
#: factor ``1/(1 − ‖M₀^{2^k}‖)`` is then at most 2, and one more
#: squaring could tighten the bound by at most 4/3.
CONDITION_BOUND_CONTRACTION: float = 0.5

#: Rounding allowance, per state, under which the bound stands in for
#: the per-frequency SVD condition gate.  An ``n × n`` SVD (and forming
#: ``I − e^{−jωT}M₀``) perturbs each singular value by at most about
#: ``δ·σ_max`` with ``δ`` a modest multiple of ``n·ε``, so the computed
#: condition is at most ``B(1 + δ)/(1 − δB)``; ``δ = 16·n·ε`` keeps the
#: gate's decision the SVD's (:func:`repro.mft.spectral.certified_condition`).
CONDITION_BOUND_ROUNDING: float = 16 * MACHINE_EPS

#: ``‖A − jωI‖₁ · h`` of a segment above which its period integral is
#: the exact resolvent solve ``A_ω⁻¹ (v(end) − v(start) − ∫f dt)``;
#: at or below it, the derivative-corrected trapezoid.  Near 0 the
#: resolvent is (near-)singular and loses digits to cancellation in
#: ``v(end) − v(start)``, while v is smooth over the segment and the
#: trapezoid's error falls as ``(‖A_ω‖h)⁴``; above it, the trapezoid
#: loses accuracy on stiff boundary layers the resolvent integrates
#: exactly.  The reference per-segment solve
#: (:mod:`repro.lptv.periodic_solve`), the cached per-ω solve and the
#: spectral-batch kernel all read this one constant: engines that split
#: the regimes differently disagree by more than the 1e-9 equivalence
#: gate.
RESOLVENT_NORM_THRESHOLD: float = 0.5

# ---------------------------------------------------------------------------
# Metrics and attribution (repro.metrics)
# ---------------------------------------------------------------------------

#: Scale-relative bound on the per-frequency conservation residual of a
#: :class:`~repro.metrics.ContributionBudget`:
#: ``max|Σ_s S_s(ω) − S_total(ω)| / max|S_total|``.  Every solve in the
#: decomposition is *linear* in its per-source forcing/Gramian, so the
#: residual is pure rounding — measured ~1e-10 on the library circuits —
#: and 1e-9 matches the spectral-batch equivalence gate.
ATTRIBUTION_CONSERVATION_RTOL: float = 1e-9

# ---------------------------------------------------------------------------
# Schedules and time grids
# ---------------------------------------------------------------------------

#: Relative slack when checking that clock-phase durations tile the
#: period: accumulated summation error over ~dozens of phases is
#: O(n·eps·T); 1e-9·T leaves six orders of headroom without masking a
#: genuinely inconsistent schedule.
SCHEDULE_TILE_RTOL: float = 1e-9

# ---------------------------------------------------------------------------
# Monte-Carlo baseline (repro.baselines)
# ---------------------------------------------------------------------------

#: Relative slack when verifying that a discretization grid is uniform
#: enough for Welch spectral estimation (equal segment counts per phase,
#: equal time steps).  1e-9 matches :data:`SCHEDULE_TILE_RTOL`: both
#: guard the same accumulated O(n·eps) schedule arithmetic.
UNIFORM_GRID_RTOL: float = 1e-9

# ---------------------------------------------------------------------------
# Circuit compilation (repro.circuit.statespace)
# ---------------------------------------------------------------------------

#: Relative threshold on the white-noise feedthrough row |Tn| (against
#: the state-selection row scale) above which an observed node is
#: rejected as having unbounded noise bandwidth.  1e-9 sits far above
#: the O(n·eps·cond) rounding residue of the MNA projections yet nine
#: decades below any physical feedthrough coefficient.
OUTPUT_FEEDTHROUGH_RTOL: float = 1e-9

#: Relative/absolute slack used to decide that an output maps to the
#: *same* state combination in every clock phase (a hard engine
#: requirement).  Matches :data:`OUTPUT_FEEDTHROUGH_RTOL`: both compare
#: rows produced by the same projection arithmetic.
OUTPUT_ROW_MATCH_RTOL: float = 1e-9

#: Absolute companion to :data:`OUTPUT_ROW_MATCH_RTOL`, three decades
#: below it for entries that are exactly zero in one phase's row.
OUTPUT_ROW_MATCH_ATOL: float = 1e-12

# ---------------------------------------------------------------------------
# Oscillator extensions (repro.oscillator, repro.steadystate)
# ---------------------------------------------------------------------------

#: Relative tolerance of the adaptive IVP solves that settle and polish
#: periodic orbits (transient pre-roll and Newton shooting).  The orbit
#: feeds a *linearisation*, so its error must sit well below the few-%
#: PSD accuracy target; 1e-9 leaves three orders of margin and still
#: costs only ~2x the default-tolerance solve.
ORBIT_IVP_RTOL: float = 1e-9

#: Absolute companion to :data:`ORBIT_IVP_RTOL`, pinned three decades
#: below it so sign changes through zero (the crossing detector's
#: input) stay resolved when the state passes through the origin.
ORBIT_IVP_ATOL: float = 1e-12

# ---------------------------------------------------------------------------
# Translinear extensions (repro.translinear)
# ---------------------------------------------------------------------------

#: Floor applied to large-signal orbit currents before they enter the
#: shot-noise Jacobian and modulation matrices.  The class-B splitter
#: drives one side's collector current exponentially toward zero every
#: half cycle; 1e-30 A (far below one electron per orbit period) keeps
#: the 1/y terms finite without perturbing any physical value.
ORBIT_CURRENT_FLOOR: float = 1e-30

# ---------------------------------------------------------------------------
# Shooting steady state (repro.steadystate.shooting)
# ---------------------------------------------------------------------------

#: Relative Newton termination of forced-period shooting:
#: ``‖x(T) − x0‖∞ ≤ tol · (1 + ‖x0‖∞)``.  ~1e6·eps absorbs the Radau
#: integrator's own error accumulation over one period while staying
#: far below the 0.1 dB validation budget of the extension circuits.
SHOOTING_FORCED_TOL: float = 1e-10

#: Newton termination of autonomous (unknown-period) shooting, one
#: decade looser than :data:`SHOOTING_FORCED_TOL`: the period unknown
#: adds a finite-difference row to the Jacobian whose noise floor
#: limits the achievable residual.
SHOOTING_AUTONOMOUS_TOL: float = 1e-9

#: Relative tolerance of the Radau trajectory integrations inside the
#: shooting loops.  The finite-difference monodromy steps scale with
#: ``√rtol``, so this also fixes the Jacobian accuracy (~1e-5).
SHOOTING_IVP_RTOL: float = 1e-10

#: Absolute companion to :data:`SHOOTING_IVP_RTOL`, two decades below
#: it so states passing through zero stay resolved.
SHOOTING_IVP_ATOL: float = 1e-12

#: Cap on the relaxation transient's (deliberately loosened) rtol: the
#: free-running settling periods only need to land near the attractor,
#: not resolve it.
SHOOTING_RELAX_RTOL_CAP: float = 1e-6

#: Floor of the finite-difference steps used for the monodromy and
#: anchor rows.  Steps must sit well above the integrator error floor
#: (``√rtol`` scaling); this floor keeps them sane when callers pass an
#: extremely tight rtol.
SHOOTING_FD_STEP_FLOOR: float = 1e-7

#: Per-component scale floor of the anchor-row difference step, so a
#: state sitting exactly at zero still gets a finite step.
SHOOTING_FD_SCALE_FLOOR: float = 1e-3

#: Norm floor of the monodromy difference scale — same role as
#: :data:`SHOOTING_FD_SCALE_FLOOR` for the whole-state norm.
SHOOTING_FD_NORM_FLOOR: float = 1e-6

#: Relative half-width of the centred difference used for orbit time
#: derivatives, as a fraction of the period.  Orbits are only stored at
#: ~1e3 dense samples, so a smaller step would difference interpolation
#: noise.
SHOOTING_DERIVATIVE_STEP_REL: float = 1e-6

# ---------------------------------------------------------------------------
# Corner / parameter-batched sweeps (repro.mft.corners, benchmark gates)
# ---------------------------------------------------------------------------

#: Maximum relative deviation allowed between the parameter-batched
#: corner sweep and per-corner cached spectral sweeps in the benchmark
#: equivalence gates.  The batched path shares kernel rows and LU
#: factors but performs the same per-cell arithmetic, so the observed
#: deviation is rounding-level (~1e-14); 1e-9 leaves five decades of
#: headroom across platforms/BLAS builds.
PARAM_BATCH_EQUIVALENCE_RTOL: float = 1e-9

#: Parity-battery bound: an M-corner batched sweep versus M independent
#: sweeps of its dynamics roots, each scaled by the corner's intensity.
#: Row stacking differs from per-root solves only by reordered
#: floating-point operations (measured ~3e-15).
PARAM_BATCH_PARITY_RTOL: float = 1e-12

#: Bound on an intensity corner versus a from-scratch rebuild of the
#: rescaled system.  The two are *different* roundings of the same
#: quantity — the corner scales its root's solved per-source PSD rows,
#: while a rebuild re-rounds the Van Loan Gramians and the covariance
#: fixed point — and the gap is amplified by the fixed-point solve's
#: conditioning (measured ~2e-9 of max|PSD| on the SC low-pass at 64
#: segments per phase).
CORNER_INTENSITY_RESTACK_RTOL: float = 1e-6

#: Minimum speedup of the parameter-batched corner sweep over per-corner
#: cached spectral sweeps enforced by the ``sc-lowpass-corners``
#: benchmark gate (measured ~3.8× at 16 corners × 64 frequencies).
CORNER_SPEEDUP_FLOOR: float = 3.0

__all__ = [
    "MACHINE_EPS",
    "TINY_FLOOR",
    "DIRECT_SOLVE_COND_LIMIT",
    "MNA_COND_LIMIT",
    "FLOQUET_MARGIN",
    "SMITH_DOUBLING_RTOL",
    "FIXED_POINT_RIDGE",
    "LSTSQ_RCOND",
    "SYLVESTER_DIAG_FLOOR",
    "EXPM_SERIES_RTOL",
    "MFT_ALIASING_COND_LIMIT",
    "MFT_COLLOCATION_COND_LIMIT",
    "PSD_FLOOR",
    "SWEEP_REFINE_DB",
    "CONDITION_BOUND_CONTRACTION",
    "CONDITION_BOUND_ROUNDING",
    "RESOLVENT_NORM_THRESHOLD",
    "ATTRIBUTION_CONSERVATION_RTOL",
    "SCHEDULE_TILE_RTOL",
    "UNIFORM_GRID_RTOL",
    "OUTPUT_FEEDTHROUGH_RTOL",
    "OUTPUT_ROW_MATCH_RTOL",
    "OUTPUT_ROW_MATCH_ATOL",
    "ORBIT_IVP_RTOL",
    "ORBIT_IVP_ATOL",
    "ORBIT_CURRENT_FLOOR",
    "SHOOTING_FORCED_TOL",
    "SHOOTING_AUTONOMOUS_TOL",
    "SHOOTING_IVP_RTOL",
    "SHOOTING_IVP_ATOL",
    "SHOOTING_RELAX_RTOL_CAP",
    "SHOOTING_FD_STEP_FLOOR",
    "SHOOTING_FD_SCALE_FLOOR",
    "SHOOTING_FD_NORM_FLOOR",
    "SHOOTING_DERIVATIVE_STEP_REL",
    "PARAM_BATCH_EQUIVALENCE_RTOL",
    "PARAM_BATCH_PARITY_RTOL",
    "CORNER_INTENSITY_RESTACK_RTOL",
    "CORNER_SPEEDUP_FLOOR",
]

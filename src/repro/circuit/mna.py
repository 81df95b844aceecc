"""Per-phase modified nodal analysis with capacitors as voltage branches.

For one clock phase the circuit is purely resistive once every capacitor
is replaced by a voltage branch whose value is the corresponding state
variable. The MNA unknown vector is ``u = [node voltages; branch
currents]`` and the assembled system is::

    M u = P x + N n + S w

* ``x`` — capacitor voltages (the global state vector),
* ``n`` — unit-intensity noise inputs (columns already scaled by
  ``sqrt(double-sided PSD)``),
* ``w`` — deterministic source values.

The capacitor branch currents are then ``C_i dx_i/dt``, which is exactly
the state-space extraction performed in
:mod:`repro.circuit.statespace`. Branch current sign convention: the
current variable of a voltage branch flows from ``node_pos`` through the
element to ``node_neg``, so for a capacitor it *is* ``C dV/dt``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CircuitError, SingularMatrixError, TopologyError
from ..linalg.checked import checked_inv, condition_number
from ..tolerances import MNA_COND_LIMIT
from .components import (
    Resistor,
    Switch,
    Vccs,
    Vcvs,
    VoltageSource,
    WhiteNoiseVoltage,
)
from .netlist import GROUND


@dataclass
class PhaseMna:
    """Assembled MNA system of one clock phase."""

    phase_name: str
    node_index: dict
    branch_names: list
    m_matrix: np.ndarray
    #: RHS map from capacitor state values, shape (nu, n_states).
    p_matrix: np.ndarray
    #: RHS map from scaled noise inputs, shape (nu, n_noise).
    n_matrix: np.ndarray
    #: RHS map from deterministic sources, shape (nu, n_sources).
    s_matrix: np.ndarray
    #: Row index in ``u`` of each capacitor's branch current,
    #: ordered like the global state vector.
    cap_current_rows: list
    #: Capacitances ordered like the global state vector.
    capacitances: np.ndarray

    @property
    def n_unknowns(self):
        return self.m_matrix.shape[0]

    def solve_maps(self):
        """Return ``(M⁻¹P, M⁻¹N, M⁻¹S)`` with a topology-aware error."""
        try:
            lu = checked_inv(self.m_matrix, context="MNA matrix",
                             cond_limit=None)
        except SingularMatrixError as exc:
            raise TopologyError(
                f"phase {self.phase_name!r}: singular MNA matrix — "
                "look for a floating node (no conductance, capacitor or "
                "voltage branch path in this phase) or a loop of "
                "capacitors/voltage sources; run "
                "repro.circuit.topology.diagnose_phase for details"
            ) from exc
        if not _cond_screen_accepts(self.m_matrix, lu):
            cond = condition_number(self.m_matrix)
            if not np.isfinite(cond) or cond > MNA_COND_LIMIT:
                raise TopologyError(
                    f"phase {self.phase_name!r}: MNA matrix is numerically "
                    f"singular (condition number {cond:.3g}); the phase "
                    "topology is ill-posed — see repro.circuit.topology")
        return lu @ self.p_matrix, lu @ self.n_matrix, lu @ self.s_matrix


def _cond_screen_accepts(m_matrix, inverse):
    """Whether ``cond₂(M) ≤ MNA_COND_LIMIT`` follows without an SVD.

    ``cond₂(M) ≤ n·‖M‖₁‖M⁻¹‖₁`` for an ``n × n`` matrix; the computed
    ``inverse`` carries rounding of relative size ``cond·ε``, which a
    factor 2 covers up to the limit.  ``False`` means only that the
    screen cannot decide (the caller then takes the SVD), never that the
    matrix is ill-conditioned.
    """
    bound = (2.0 * m_matrix.shape[0] * np.linalg.norm(m_matrix, 1)
             * np.linalg.norm(inverse, 1))
    return bool(bound <= MNA_COND_LIMIT)


def assemble_phase(netlist, phase_name, noise_descriptors=None,
                   signal_sources=None):
    """Assemble the MNA system of ``netlist`` during ``phase_name``.

    ``noise_descriptors``/``signal_sources`` fix the global column
    ordering across phases; they default to the netlist's own enumeration.
    """
    nodes = netlist.nodes()
    node_index = {node: k for k, node in enumerate(nodes)}
    n_nodes = len(nodes)
    if noise_descriptors is None:
        noise_descriptors = netlist.noise_descriptors()
    if signal_sources is None:
        signal_sources = netlist.signal_sources()
    caps = netlist.capacitors()

    # Enumerate branches: caps first (state order), then other
    # voltage-defined elements active in this phase.
    branches = list(caps)
    for comp in netlist.components:
        if isinstance(comp, (VoltageSource, Vcvs, WhiteNoiseVoltage)):
            branches.append(comp)
    n_branches = len(branches)
    nu = n_nodes + n_branches
    branch_row = {comp.name: n_nodes + k for k, comp in enumerate(branches)}

    m = np.zeros((nu, nu))
    p = np.zeros((nu, len(caps)))
    n_map = np.zeros((nu, len(noise_descriptors)))
    s_map = np.zeros((nu, len(signal_sources)))

    def kcl(node, col, value):
        """Add ``value`` at (KCL row of node, col); ground rows dropped."""
        if node != GROUND:
            m[node_index[node], col] += value

    def rhs_inject(node, matrix, col, value):
        if node != GROUND:
            matrix[node_index[node], col] += value

    def stamp_conductance(a, b, g):
        for na, nb, sign in ((a, a, +1.0), (b, b, +1.0),
                             (a, b, -1.0), (b, a, -1.0)):
            if na != GROUND and nb != GROUND:
                m[node_index[na], node_index[nb]] += sign * g

    # --- conductive elements -------------------------------------------
    for comp in netlist.components:
        if isinstance(comp, Resistor):
            stamp_conductance(comp.node_pos, comp.node_neg,
                              1.0 / comp.resistance)
        elif isinstance(comp, Switch) and comp.is_closed(phase_name):
            if comp.ron is None:
                raise CircuitError(
                    f"switch {comp.name!r} is ideal (ron=None); ideal "
                    "switches are only supported through the "
                    "charge-redistribution paths (Phase.end_jump on a "
                    "hand-built system, or the discrete-time "
                    "repro.baselines.toth_suyama model), not resistive "
                    "MNA — give the switch a finite ron")
            stamp_conductance(comp.node_pos, comp.node_neg, 1.0 / comp.ron)
        elif isinstance(comp, Vccs):
            for out_node, out_sign in ((comp.out_pos, +1.0),
                                       (comp.out_neg, -1.0)):
                if out_node == GROUND:
                    continue
                for ctrl_node, ctrl_sign in ((comp.ctrl_pos, +1.0),
                                             (comp.ctrl_neg, -1.0)):
                    if ctrl_node != GROUND:
                        m[node_index[out_node], node_index[ctrl_node]] += (
                            out_sign * ctrl_sign * comp.gm)

    # --- voltage-defined branches ----------------------------------------
    for comp in branches:
        row = branch_row[comp.name]
        col = row
        # KCL: branch current leaves node_pos, enters node_neg.
        pos, neg = ((comp.node_pos, comp.node_neg)
                    if not isinstance(comp, Vcvs)
                    else (comp.out_pos, comp.out_neg))
        kcl(pos, col, +1.0)
        kcl(neg, col, -1.0)
        # Branch voltage equation.
        if pos != GROUND:
            m[row, node_index[pos]] += 1.0
        if neg != GROUND:
            m[row, node_index[neg]] -= 1.0
        if isinstance(comp, Vcvs):
            if comp.ctrl_pos != GROUND:
                m[row, node_index[comp.ctrl_pos]] -= comp.gain
            if comp.ctrl_neg != GROUND:
                m[row, node_index[comp.ctrl_neg]] += comp.gain

    # --- RHS maps ---------------------------------------------------------
    for state_idx, cap in enumerate(caps):
        p[branch_row[cap.name], state_idx] = 1.0

    for col, (label, kind, comp) in enumerate(noise_descriptors):
        if kind in ("thermal-resistor", "thermal-switch"):
            if kind == "thermal-switch" and not comp.is_closed(phase_name):
                continue  # open switch: no thermal noise this phase
            resistance = (comp.resistance
                          if kind == "thermal-resistor" else comp.ron)
            intensity = np.sqrt(
                netlist.thermal_current_psd(comp, resistance))
            rhs_inject(comp.node_pos, n_map, col, intensity)
            rhs_inject(comp.node_neg, n_map, col, -intensity)
        elif kind == "current":
            intensity = np.sqrt(comp.psd)
            rhs_inject(comp.node_pos, n_map, col, intensity)
            rhs_inject(comp.node_neg, n_map, col, -intensity)
        elif kind == "voltage":
            n_map[branch_row[comp.name], col] = np.sqrt(comp.psd)
        else:  # pragma: no cover - descriptor kinds are fixed above
            raise CircuitError(f"unknown noise descriptor kind {kind!r} "
                               f"for {label!r}")

    for col, comp in enumerate(signal_sources):
        if isinstance(comp, VoltageSource):
            s_map[branch_row[comp.name], col] = 1.0
        else:  # CurrentSource injects into node_pos
            rhs_inject(comp.node_pos, s_map, col, 1.0)
            rhs_inject(comp.node_neg, s_map, col, -1.0)

    cap_rows = [branch_row[c.name] for c in caps]
    return PhaseMna(
        phase_name=str(phase_name), node_index=node_index,
        branch_names=[b.name for b in branches], m_matrix=m,
        p_matrix=p, n_matrix=n_map, s_matrix=s_map,
        cap_current_rows=cap_rows,
        capacitances=np.asarray([c.capacitance for c in caps]))

"""MNA assembly and state-space extraction against hand analysis."""

import numpy as np
import pytest

from repro.circuit import mna as mna_module
from repro.circuit.mna import assemble_phase
from repro.circuit.netlist import Netlist
from repro.circuit.phases import ClockSchedule
from repro.circuit.statespace import (
    build_lptv_system,
    extract_phase_state_space,
)
from repro.errors import CircuitError, NoiseModelError, TopologyError
from repro.linalg.checked import condition_number
from repro.tolerances import MNA_COND_LIMIT
from repro.units import BOLTZMANN, ROOM_TEMPERATURE


def rc_netlist(r=1e3, c=1e-9):
    nl = Netlist()
    nl.add_resistor("R1", "a", "0", r)
    nl.add_capacitor("C1", "a", "0", c)
    return nl


class TestMnaAssembly:
    def test_rc_dimensions(self):
        mna = assemble_phase(rc_netlist(), "p")
        # Unknowns: node a + capacitor branch current.
        assert mna.n_unknowns == 2
        assert mna.branch_names == ["C1"]

    def test_rc_state_matrix(self):
        space = extract_phase_state_space(rc_netlist(), "p")
        assert space.a_matrix[0, 0] == pytest.approx(-1.0 / (1e3 * 1e-9))

    def test_rc_noise_column(self):
        r, c = 1e3, 1e-9
        space = extract_phase_state_space(rc_netlist(r, c), "p")
        expected = np.sqrt(2 * BOLTZMANN * ROOM_TEMPERATURE / r) / c
        assert abs(space.b_noise[0, 0]) == pytest.approx(expected,
                                                         rel=1e-12)

    def test_voltage_divider_node_map(self):
        # vout = vin / 2 through two equal resistors; check the signal
        # map Ts on the middle node.
        nl = Netlist()
        nl.add_voltage_source("Vin", "in", "0", 1.0)
        nl.add_resistor("R1", "in", "mid", 1e3, noisy=False)
        nl.add_resistor("R2", "mid", "0", 1e3, noisy=False)
        nl.add_capacitor("CL", "mid", "0", 1e-15)
        space = extract_phase_state_space(nl, "p")
        _tx, _tn, ts = space.node_row("mid")
        # DC the cap dominates; the *instantaneous* algebraic map of the
        # source onto the node is zero because the cap branch pins it.
        assert ts[0] == pytest.approx(0.0, abs=1e-12)
        # But the state feeds the node directly.
        tx, _tn, _ts = space.node_row("mid")
        assert tx[0] == pytest.approx(1.0)

    def test_vccs_orientation(self):
        # gm from (p,0) injecting into out per the opamp convention:
        # dVout/dt = gm/C * v_p when wired as in add_source_follower.
        nl = Netlist()
        nl.add_vccs("G1", "out", "0", "0", "p", 1e-3)
        nl.add_capacitor("Co", "out", "0", 1e-9)
        nl.add_capacitor("Cp", "p", "0", 1e-9)
        space = extract_phase_state_space(nl, "p")
        i_out = space.state_names.index("Co")
        i_p = space.state_names.index("Cp")
        assert space.a_matrix[i_out, i_p] == pytest.approx(1e-3 / 1e-9)

    def test_vcvs_branch(self):
        nl = Netlist()
        nl.add_capacitor("Cs", "a", "0", 1e-9)
        nl.add_vcvs("E1", "out", "0", "a", "0", 2.0)
        nl.add_resistor("RL", "out", "0", 1e3, noisy=False)
        nl.add_noise_current("IN", "a", "0", 1e-24)
        space = extract_phase_state_space(nl, "p")
        tx, _tn, _ts = space.node_row("out")
        assert tx[0] == pytest.approx(2.0)

    def test_open_switch_absent(self):
        nl = rc_netlist()
        nl.add_switch("S1", "a", "b", ("other",), ron=10.0)
        nl.add_resistor("Rb", "b", "0", 1e3)
        space = extract_phase_state_space(nl, "p")
        # In phase "p" the switch is open: node a decays through R1 only.
        assert space.a_matrix[0, 0] == pytest.approx(-1e6)

    def test_closed_ideal_switch_rejected_in_mna(self):
        nl = rc_netlist()
        nl.add_switch("S1", "a", "b", ("p",), ron=None)
        nl.add_resistor("Rb", "b", "0", 1e3)
        with pytest.raises(CircuitError):
            assemble_phase(nl, "p")

    def test_floating_node_raises_topology_error(self):
        nl = rc_netlist()
        nl.add_resistor("R9", "x", "y", 1e3)  # island, no ground path
        with pytest.raises(TopologyError):
            extract_phase_state_space(nl, "p")

    def test_capacitor_loop_raises_topology_error(self):
        nl = Netlist()
        nl.add_capacitor("C1", "a", "0", 1e-9)
        nl.add_capacitor("C2", "a", "0", 2e-9)
        nl.add_resistor("R1", "a", "0", 1e3)
        with pytest.raises(TopologyError):
            extract_phase_state_space(nl, "p")


def stiff_bridge_netlist(r_bridge):
    """RC node tied to a second grounded node by a tiny ``r_bridge``.

    cond₂ of the MNA matrix is ~2.8e3 / ``r_bridge`` (measured): 2.8e12
    at 1e-12 Ω, 2.8e14 at 1e-14 Ω.
    """
    nl = rc_netlist()
    nl.add_resistor("Rbridge", "a", "b", r_bridge)
    nl.add_resistor("Rb", "b", "0", 1e3)
    return nl


class TestMnaConditionScreen:
    """``solve_maps`` takes an SVD only where the 1-norm screen cannot
    prove ``cond₂ ≤ MNA_COND_LIMIT``."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []

        def counting(matrix):
            calls.append(np.shape(matrix))
            return condition_number(matrix)

        monkeypatch.setattr(mna_module, "condition_number", counting)
        return calls

    def test_healthy_circuit_takes_no_svd(self, svd_calls):
        from repro.circuits import sc_bandpass_system

        sc_bandpass_system()
        extract_phase_state_space(rc_netlist(), "p")
        assert svd_calls == []

    def test_ill_posed_phase_raises_with_svd_condition(self, svd_calls):
        nl = stiff_bridge_netlist(1e-14)
        cond = condition_number(assemble_phase(nl, "p").m_matrix)
        assert cond > MNA_COND_LIMIT
        with pytest.raises(TopologyError) as info:
            extract_phase_state_space(nl, "p")
        assert str(info.value) == (
            f"phase 'p': MNA matrix is numerically singular (condition "
            f"number {cond:.3g}); the phase topology is ill-posed — see "
            "repro.circuit.topology")
        assert len(svd_calls) == 1

    def test_undecided_screen_falls_back_to_svd(self, svd_calls):
        # cond₂ ≈ 2.8e12 passes the limit, but n·cond₁ does not prove it.
        extract_phase_state_space(stiff_bridge_netlist(1e-12), "p")
        assert len(svd_calls) == 1

    def test_screen_accepts_only_below_limit(self):
        # Half the draws are random orthogonal factors; the other half
        # align the extreme singular vectors so that cond₁ ≈ 1.4·cond₂/n,
        # the case the factor ``n`` in the screen exists for.
        rng = np.random.default_rng(20031)
        accepted = 0
        for draw in range(400):
            n = int(rng.integers(3, 41))
            if draw % 2:
                u, v = (_orthogonal_with_ends(rng, n, _unit(n, [0]),
                                              _unit(n, range(1, n))),
                        _orthogonal_with_ends(rng, n, _unit(n, range(n)),
                                              _unit(n, [0], [1])))
            else:
                u, v = (np.linalg.qr(rng.standard_normal((n, n)))[0]
                        for _ in range(2))
            sigma = np.logspace(0.0, -rng.uniform(8.0, 16.0), n)
            matrix = (u * sigma * 10.0 ** rng.uniform(-6.0, 6.0)) @ v.T
            if mna_module._cond_screen_accepts(matrix,
                                               np.linalg.inv(matrix)):
                accepted += 1
                assert np.linalg.cond(matrix) <= MNA_COND_LIMIT
        assert accepted > 50


def _unit(n, plus, minus=()):
    """Unit vector with equal entries ``+`` at ``plus``, ``−`` at ``minus``."""
    vec = np.zeros(n)
    vec[list(plus)] = 1.0
    vec[list(minus)] = -1.0
    return vec / np.linalg.norm(vec)


def _orthogonal_with_ends(rng, n, first, last):
    """Random orthogonal matrix whose first column is ``first`` and last
    column is ``last`` (two orthonormal vectors)."""
    q, _r = np.linalg.qr(np.column_stack(
        [first, last, rng.standard_normal((n, n - 2))]))
    q[:, :2] = np.column_stack([first, last])
    return q[:, [0] + list(range(2, n)) + [1]]


class TestBuildLptv:
    def test_requires_outputs(self, rc_params):
        nl = rc_netlist()
        sch = ClockSchedule.two_phase(1e3)
        with pytest.raises(CircuitError):
            build_lptv_system(nl, sch, outputs=[])

    def test_requires_capacitors(self):
        nl = Netlist()
        nl.add_resistor("R1", "a", "0", 1e3)
        with pytest.raises(CircuitError):
            build_lptv_system(nl, ClockSchedule.two_phase(1e3), ["a"])

    def test_requires_noise(self):
        nl = Netlist()
        nl.add_resistor("R1", "a", "0", 1e3, noisy=False)
        nl.add_capacitor("C1", "a", "0", 1e-9)
        with pytest.raises(NoiseModelError):
            build_lptv_system(nl, ClockSchedule.two_phase(1e3), ["a"])

    def test_switch_phase_names_validated(self):
        nl = rc_netlist()
        nl.add_switch("S1", "a", "b", ("weird",))
        nl.add_resistor("Rb", "b", "0", 1e3)
        with pytest.raises(Exception):
            build_lptv_system(nl, ClockSchedule.two_phase(1e3), ["a"])

    def test_cap_state_output_syntax(self):
        nl = rc_netlist()
        sch = ClockSchedule(("p",), (1e-3,))
        model = build_lptv_system(nl, sch, outputs=["@C1"])
        assert model.system.output_names == ["v(C1)"]
        assert np.allclose(model.system.output_matrix, [[1.0]])

    def test_weighted_output_syntax(self):
        nl = rc_netlist()
        nl.add_capacitor("C2", "b", "0", 1e-9)
        nl.add_resistor("R2", "b", "0", 1e3)
        sch = ClockSchedule(("p",), (1e-3,))
        model = build_lptv_system(
            nl, sch, outputs=[("diff", {"C1": 1.0, "C2": -1.0})])
        assert np.allclose(model.system.output_matrix, [[1.0, -1.0]])
        assert model.system.output_names == ["diff"]

    def test_unknown_state_in_weighted_output(self):
        nl = rc_netlist()
        sch = ClockSchedule(("p",), (1e-3,))
        with pytest.raises(CircuitError):
            build_lptv_system(nl, sch,
                              outputs=[("bad", {"nope": 1.0})])

    def test_feedthrough_output_rejected(self):
        # Observing the middle of a resistive divider: direct white
        # noise feedthrough, must be rejected with guidance.
        nl = Netlist()
        nl.add_resistor("R1", "in", "mid", 1e3)
        nl.add_resistor("R2", "mid", "0", 1e3)
        nl.add_voltage_source("Vin", "in", "0", 0.0)
        nl.add_capacitor("C1", "other", "0", 1e-9)
        nl.add_resistor("R3", "other", "0", 1e3)
        sch = ClockSchedule(("p",), (1e-3,))
        with pytest.raises(NoiseModelError):
            build_lptv_system(nl, sch, outputs=["mid"])

    def test_signal_system_shares_dynamics(self, lowpass_model):
        sig = lowpass_model.signal_system()
        assert sig.n_states == lowpass_model.system.n_states
        assert sig.period == pytest.approx(lowpass_model.system.period)
        assert np.allclose(sig.phases[0].a_matrix,
                           lowpass_model.system.phases[0].a_matrix)

import json

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionsampler import dd_compiler
from ionsampler.dd_compiler import (
    _GENERATOR_BUILDERS,
    SCHEMES,
    DecouplingBlock,
    EvolutionSegment,
    PhaseEvent,
    PulseSchedule,
    SignPattern,
    _walsh_frames,
    compile_beam_splitter,
    compile_elements,
    compile_unitary,
    hadamard_slice_patterns,
    nn_isolation_pattern,
    simulate_schedule,
)
from ionsampler.ion_chain import CouplingMatrix, TrapParams, build_chain, coupling_matrix
from ionsampler.linear_optics import (
    BSElement,
    ElementSequence,
    PhaseElement,
    beam_splitter_unitary,
    fourier_unitary,
    haar_unitary,
    reck_decompose,
    unitary_distance,
)


def chain_coupling(num_ions: int):
    trap = TrapParams(2 * np.pi * 10e6, 2 * np.pi * 0.3e6, num_ions)
    return coupling_matrix(build_chain(trap))


class TestSignPatterns:
    def test_nn_two_modes_trivial(self):
        assert nn_isolation_pattern(2, 1).signs == (1, 1)

    def test_nn_four_modes_middle_pair(self):
        assert nn_isolation_pattern(4, 2).signs == (-1, 1, 1, -1)

    def test_nn_five_modes_first_pair(self):
        assert nn_isolation_pattern(5, 1).signs == (1, 1, -1, 1, -1)

    @given(dim=st.integers(2, 12), offset=st.integers(0, 11))
    @settings(max_examples=40)
    def test_nn_parity_condition(self, dim, offset):
        pair = 1 + offset % (dim - 1)
        s = nn_isolation_pattern(dim, pair).signs
        for i in range(dim - 1):
            expected = 1 if i + 1 == pair else -1
            assert s[i] * s[i + 1] == expected

    def test_hadamard_two_modes_single_slice(self):
        patterns = hadamard_slice_patterns(2, 1)
        assert [p.signs for p in patterns] == [(1, 1)]

    def test_hadamard_three_modes(self):
        patterns = hadamard_slice_patterns(3, 1)
        assert [p.signs for p in patterns] == [(1, 1, 1), (1, 1, -1)]

    def test_hadamard_slice_count_is_power_of_two(self):
        for dim, expected in [(2, 1), (3, 2), (4, 4), (5, 4), (6, 8), (9, 8)]:
            assert len(hadamard_slice_patterns(dim, 1)) == expected

    @given(dim=st.integers(2, 10), offset=st.integers(0, 9))
    @settings(max_examples=50)
    def test_hadamard_pair_averages(self, dim, offset):
        pair = 1 + offset % (dim - 1)
        patterns = hadamard_slice_patterns(dim, pair)
        for i in range(dim):
            for k in range(i + 1, dim):
                total = sum(p.signs[i] * p.signs[k] for p in patterns)
                if (i + 1, k + 1) == (pair, pair + 1):
                    assert total == len(patterns)
                else:
                    assert total == 0  # exact integer cancellation

    def test_bad_pair_rejected(self):
        with pytest.raises(ValueError):
            nn_isolation_pattern(3, 3)
        with pytest.raises(ValueError):
            hadamard_slice_patterns(3, 0)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_generator_frames_match_reference(self, scheme):
        # frames derived from the generators against the frames written out
        # one slice at a time (parity of row & t)
        for dim in range(2, 13):
            for pair in range(1, dim):
                reference = oracles.decoupling_frames(scheme, dim, pair)
                frames = _walsh_frames(_GENERATOR_BUILDERS[scheme](dim, pair), dim)
                np.testing.assert_array_equal(frames, reference)
                if scheme == "hadamard":
                    patterns = hadamard_slice_patterns(dim, pair)
                    assert [p.signs for p in patterns] == [tuple(f) for f in reference.tolist()]


class TestEchoPrimitive:
    @given(rate=st.floats(1e3, 1e6), total=st.floats(1e-6, 1e-2))
    @settings(max_examples=40)
    def test_pair_echo_cancels_evolution(self, rate, total):
        # evolve T/2, flip one mode, evolve T/2, flip back: the sign
        # conjugation negates the off-diagonal coupling exactly.
        k = np.array([[0.0, rate], [rate, 0.0]])
        half = total / 2
        schedule = PulseSchedule(
            2,
            (
                EvolutionSegment(half),
                PhaseEvent(half, 1, np.pi),
                EvolutionSegment(half),
                PhaseEvent(total, 1, np.pi),
            ),
        )
        u = simulate_schedule(k, schedule)
        assert unitary_distance(u, np.eye(2)) < 1e-12


class TestCompileBeamSplitter:
    def test_zero_angle_empty_schedule(self):
        schedule = compile_beam_splitter(chain_coupling(3), 1, 0.0)
        assert schedule.steps == ()
        assert schedule.total_duration == 0.0

    def test_two_modes_single_segment(self):
        k = chain_coupling(2)
        schedule = compile_beam_splitter(k, 1, np.pi / 4)
        assert not any(isinstance(s, PhaseEvent) for s in schedule.expand().steps)
        segments = [s for s in schedule.expand().steps if isinstance(s, EvolutionSegment)]
        assert len(segments) == 1
        assert schedule.total_duration == pytest.approx(
            (np.pi / 4) / k.rates[0, 1], rel=1e-12
        )
        u = simulate_schedule(k, schedule)
        assert unitary_distance(u, beam_splitter_unitary(1, np.pi / 4, 2)) < 1e-10

    def test_duration_accounting(self):
        k = chain_coupling(5)
        theta = 1.1
        schedule = compile_beam_splitter(k, 3, theta, n_sub=8)
        assert schedule.total_duration == pytest.approx(theta / k.rates[2, 3], rel=1e-12)

    def test_pi_events_pair_up_per_mode(self):
        schedule = compile_beam_splitter(chain_coupling(5), 2, 0.9, n_sub=4)
        counts = {}
        for step in schedule.expand().steps:
            if isinstance(step, PhaseEvent):
                assert step.phi == pytest.approx(np.pi)
                counts[step.mode_index] = counts.get(step.mode_index, 0) + 1
        assert counts, "a five-mode compile should need decoupling flips"
        for mode, n in counts.items():
            assert n % 2 == 0, f"mode {mode} ends outside its nominal frame"

    def test_error_shrinks_with_subdivision(self):
        k = chain_coupling(4)
        target = beam_splitter_unitary(2, np.pi / 4, 4)
        dist = {
            n: unitary_distance(
                simulate_schedule(k, compile_beam_splitter(k, 2, np.pi / 4, n_sub=n)),
                target,
            )
            for n in (4, 16)
        }
        assert dist[16] < dist[4]

    def test_nn_scheme_cancels_neighbour_leakage(self):
        k = chain_coupling(3)
        target = beam_splitter_unitary(1, np.pi / 3, 3)
        compiled = simulate_schedule(
            k, compile_beam_splitter(k, 1, np.pi / 3, n_sub=32, scheme="nn")
        )
        plain = simulate_schedule(
            k,
            PulseSchedule(3, (EvolutionSegment((np.pi / 3) / k.rates[0, 1]),)),
        )
        assert unitary_distance(compiled, target) < unitary_distance(plain, target)

    def test_angle_out_of_range(self):
        with pytest.raises(ValueError):
            compile_beam_splitter(chain_coupling(3), 1, 2.0)

    def test_weak_coupling_duration_guard(self):
        # pair (1, 2) is 1e7 times weaker than the strongest coupling
        rates = np.array([[0.0, 1e-3, 1.0], [1e-3, 0.0, 1e4], [1.0, 1e4, 0.0]])
        weak = CouplingMatrix(rates, validity_ratio=0.0)
        with pytest.raises(ValueError, match="duration"):
            compile_beam_splitter(weak, 1, np.pi / 4)
        compile_beam_splitter(weak, 2, np.pi / 4)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            compile_beam_splitter(chain_coupling(3), 1, 0.5, scheme="zigzag")


class TestCompileUnitary:
    def test_identity_target_zero_duration(self):
        schedule = compile_unitary(chain_coupling(3), np.eye(3))
        assert schedule.total_duration == 0.0

    def test_balanced_splitter_with_phases(self):
        k = chain_coupling(2)
        target = (
            np.diag([np.exp(0.3j), np.exp(-0.1j)]) @ beam_splitter_unitary(1, np.pi / 4, 2)
        )
        schedule = compile_unitary(k, target)
        assert unitary_distance(simulate_schedule(k, schedule), target) < 1e-9

    def test_fourier_error_monotone_in_subdivision(self):
        k = chain_coupling(4)
        target = fourier_unitary(4)
        distances = [
            unitary_distance(
                simulate_schedule(k, compile_unitary(k, target, n_sub=n)), target
            )
            for n in (4, 16, 64)
        ]
        assert distances[0] > distances[1] > distances[2]

    def test_element_dim_mismatch(self):
        seq = ElementSequence(3, (BSElement(1, 0.3),))
        with pytest.raises(ValueError):
            compile_elements(chain_coupling(4), seq)

    def test_phase_elements_become_events(self):
        k = chain_coupling(2)
        seq = ElementSequence(2, (PhaseElement(2, 1.0), BSElement(1, 0.5)))
        schedule = compile_elements(k, seq)
        events = [s for s in schedule.steps if isinstance(s, PhaseEvent)]
        assert events[0].mode_index == 2
        assert events[0].phi == pytest.approx(1.0)
        assert events[0].time == 0.0


class TestSimulateSchedule:
    def test_empty_schedule_is_identity(self):
        u = simulate_schedule(np.zeros((3, 3)), PulseSchedule(3))
        np.testing.assert_allclose(u, np.eye(3), atol=1e-15)

    def test_single_phase_event(self):
        schedule = PulseSchedule(3, (PhaseEvent(0.0, 2, np.pi),))
        u = simulate_schedule(np.zeros((3, 3)), schedule)
        np.testing.assert_allclose(u, np.diag([1, -1, 1]), atol=1e-12)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            simulate_schedule(np.zeros((2, 2)), PulseSchedule(3))

    @pytest.mark.parametrize("n_sub", [1, 4, 16])
    @pytest.mark.parametrize("scheme", ["hadamard", "nn"])
    @pytest.mark.parametrize("num_ions", [2, 3, 4, 5])
    def test_blocks_match_their_expansion(self, num_ions, scheme, n_sub):
        # the block route (powers of one repetition) against the flat
        # segment-by-segment product of the exported pulse list
        k = chain_coupling(num_ions)
        target = haar_unitary(num_ions, seed=num_ions)
        schedule = compile_unitary(k, target, n_sub=n_sub, scheme=scheme)
        flat = schedule.expand()
        assert not any(isinstance(s, DecouplingBlock) for s in flat.steps)
        assert flat.total_duration == pytest.approx(schedule.total_duration, rel=1e-12)
        diff = simulate_schedule(k, schedule) - simulate_schedule(k, flat)
        assert np.max(np.abs(diff)) < 1e-12

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_expansion_matches_reference_frames(self, scheme):
        # expand() against the flat list written from the reference frames of
        # each block's pair: a pi event per mode whose sign changes, then tau
        # of free evolution, merged into the segment before it
        k = chain_coupling(5)
        seq = reck_decompose(haar_unitary(5, seed=5))
        schedule = compile_elements(k, seq, n_sub=3, scheme=scheme)
        pairs = iter([e.pair_index for e in seq.elements if isinstance(e, BSElement) and e.theta > 0])
        steps, elapsed = [], 0.0
        for step in schedule.steps:
            if isinstance(step, PhaseEvent):
                steps.append(step)
                continue
            frames = oracles.decoupling_frames(scheme, 5, next(pairs)).tolist()
            current = frames[0]
            for frame in (frames + frames[::-1]) * step.n_sub:
                flips = [m + 1 for m in range(5) if current[m] != frame[m]]
                steps.extend(PhaseEvent(elapsed, mode, np.pi) for mode in flips)
                if steps and isinstance(steps[-1], EvolutionSegment):
                    steps[-1] = EvolutionSegment(steps[-1].duration + step.tau)
                else:
                    steps.append(EvolutionSegment(step.tau))
                elapsed += step.tau
                current = frame
        assert next(pairs, None) is None
        assert schedule.expand() == PulseSchedule(5, steps)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18,
        reason="np.longdouble is no wider than float64 here, so the reference gains no digits",
    )
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n_sub", [1, 16, 63, 64])
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("num_ions", [3, 5, 8])
    def test_matches_extended_precision_reference(self, num_ions, scheme, n_sub, seed):
        # the same compiled slices evolved in np.clongdouble: the float64
        # route, powers of each period included, stays at rounding level
        k = chain_coupling(num_ions)
        schedule = compile_unitary(k, haar_unitary(num_ions, seed=seed), n_sub=n_sub, scheme=scheme)
        reference = oracles.schedule_unitary_longdouble(k.rates, schedule)
        assert np.max(np.abs(simulate_schedule(k, schedule) - reference)) < 2e-13

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("num_ions", range(2, 13))
    def test_stacked_blocks_equal_the_block_by_block_loop(self, num_ions, scheme):
        # the blocks of one generator count and n_sub run as one stack, whose
        # matrix products must round exactly as one block at a time does
        k = chain_coupling(num_ions)
        schedule = compile_unitary(k, haar_unitary(num_ions, seed=num_ions), n_sub=16, scheme=scheme)
        np.testing.assert_array_equal(simulate_schedule(k, schedule),
                                      oracles.schedule_unitary_by_blocks(k.rates, schedule))

    def test_stacked_blocks_equal_the_loop_on_a_mixed_schedule(self):
        # blocks of 0-3 generators and three n_sub values, interleaved with
        # segments and phase events, so each stack's periods are taken in list order
        k = chain_coupling(5)
        rng = np.random.default_rng(11)

        def block(count, n_sub):
            generators = [SignPattern(tuple(rng.choice([-1, 1], 5).tolist())) for _ in range(count)]
            return DecouplingBlock(rng.uniform(1e-7, 1e-6), generators, n_sub)

        steps = [block(2, 3), EvolutionSegment(2e-6), PhaseEvent(0.0, 2, 0.7), block(0, 5),
                 block(3, 1), block(2, 3), PhaseEvent(0.0, 5, -1.2), block(1, 16),
                 EvolutionSegment(0.0), block(3, 1), block(2, 4), block(2, 3)]
        schedule = PulseSchedule(5, steps)
        np.testing.assert_array_equal(simulate_schedule(k, schedule),
                                      oracles.schedule_unitary_by_blocks(k.rates, schedule))

    @pytest.mark.parametrize("stack", [1, 2, 5])
    def test_blocks_past_one_stack_equal_the_loop(self, monkeypatch, stack):
        # more blocks of one generator count and n_sub than a stack holds, in
        # groups that interleave, so stacks are made part way through the steps
        monkeypatch.setattr(dd_compiler, "STACK_BLOCKS", stack)
        k = chain_coupling(6)
        rng = np.random.default_rng(stack)
        steps = []
        for i in range(23):
            generators = [SignPattern(tuple(rng.choice([-1, 1], 6).tolist())) for _ in range(1 + i % 3)]
            steps.append(DecouplingBlock(rng.uniform(1e-7, 1e-6), generators, (4, 16)[i % 2]))
            if i % 7 == 3:
                steps.append(PhaseEvent(0.0, 1 + i % 6, 0.3 * i))
        schedule = PulseSchedule(6, steps)
        np.testing.assert_array_equal(simulate_schedule(k, schedule),
                                      oracles.schedule_unitary_by_blocks(k.rates, schedule))

    def test_schedule_without_blocks_equals_the_loop(self):
        k = chain_coupling(4)
        schedule = PulseSchedule(4, (EvolutionSegment(1e-6), PhaseEvent(0.0, 3, 0.4),
                                     EvolutionSegment(3e-7), PhaseEvent(1e-6, 1, -2.0)))
        np.testing.assert_array_equal(simulate_schedule(k, schedule),
                                      oracles.schedule_unitary_by_blocks(k.rates, schedule))

    @pytest.mark.parametrize("num_ions, omega_z_hz", [(24, 0.2e6), (32, 0.15e6)])
    def test_long_chains_stay_unitary(self, num_ions, omega_z_hz):
        # a 32-ion Haar target takes about 1e6 slice products, whose rounding
        # must not add up towards the 1e-10 unitarity tolerance
        trap = TrapParams(2 * np.pi * 10e6, 2 * np.pi * omega_z_hz, num_ions)
        k = coupling_matrix(build_chain(trap))
        target = haar_unitary(num_ions, seed=3)
        u = simulate_schedule(k, compile_unitary(k, target, n_sub=64))
        assert np.max(np.abs(u.conj().T @ u - np.eye(num_ions))) < 1e-12
        assert unitary_distance(u, target) < 1e-8


class TestScheduleSerialization:
    def test_round_trip(self):
        k = chain_coupling(4)
        for schedule in (
            compile_beam_splitter(k, 2, 1.0, n_sub=2),
            compile_unitary(k, fourier_unitary(4), n_sub=2),
        ):
            back = PulseSchedule.from_json(json.loads(json.dumps(schedule.to_json())))
            assert back == schedule

    @pytest.mark.parametrize(
        "defect, match",
        [
            ("sign", "signs must be"),
            ("generator_length", "generator length"),
            ("n_sub", "n_sub >= 1"),
            ("tau", "finite tau"),
        ],
    )
    def test_malformed_block_rejected(self, defect, match):
        data = compile_beam_splitter(chain_coupling(4), 2, 1.0, n_sub=2).to_json()
        block = data["steps"][0]["block"]
        if defect == "sign":
            block["generators"][1][0] = 0
        elif defect == "generator_length":
            block["generators"][1].append(1)
        elif defect == "tau":
            block["tau_s"] = float("nan")
        else:
            block["n_sub"] = 0
        with pytest.raises(ValueError, match=match):
            PulseSchedule.from_json(data)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            EvolutionSegment(-1.0)

    @pytest.mark.parametrize("make", [
        lambda: EvolutionSegment(float("nan")),
        lambda: EvolutionSegment(float("inf")),
        lambda: PhaseEvent(float("nan"), 1, 0.1),
        lambda: PhaseEvent(0.0, 1, float("nan")),
        lambda: PhaseEvent(0.0, 1, float("inf")),
    ], ids=["segment-nan", "segment-inf", "event-time-nan", "phase-nan", "phase-inf"])
    def test_non_finite_value_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_event_beyond_elapsed_rejected(self):
        with pytest.raises(ValueError):
            PulseSchedule(2, (EvolutionSegment(1.0), PhaseEvent(5.0, 1, 0.1)))

    def test_inconsistent_declared_total_rejected(self):
        for schedule in (
            PulseSchedule(2, (EvolutionSegment(1.0),)),
            compile_beam_splitter(chain_coupling(4), 2, 1.0, n_sub=2),
        ):
            for declared in (2.0 * schedule.total_duration, float("nan")):
                data = schedule.to_json()
                data["total_s"] = declared
                with pytest.raises(ValueError):
                    PulseSchedule.from_json(data)

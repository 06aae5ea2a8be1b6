"""Acceptance suite: one test per release criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` summary line
(visible with ``pytest -s tests/test_acceptance.py``) and then asserts,
so a failing criterion both shows up in the summary and fails the run.
The whole suite is sized to finish in well under five minutes.
"""

import io
import time

import numpy as np

import oracles
from ionsampler.boson_stats import (
    exact_distribution,
    fock_oracle_distribution,
    outcome_probability,
    permanent_ryser,
    sample_outcomes,
    samples_to_csv,
    total_variation_distance,
)
from ionsampler.dd_compiler import (
    EvolutionSegment,
    PhaseEvent,
    PulseSchedule,
    compile_unitary,
    hadamard_slice_patterns,
    simulate_schedule,
)
from ionsampler.detection import DetectionParams, measure_chain, measure_mode
from ionsampler.ion_chain import (
    TrapParams,
    ValidityError,
    build_chain,
    coupling_matrix,
    equilibrium_positions,
)
from ionsampler.linear_optics import (
    beam_splitter_unitary,
    fourier_unitary,
    haar_unitary,
    reck_decompose,
    recompose,
    unitary_distance,
)

BALANCED = beam_splitter_unitary(1, np.pi / 4, 2)


def report(num: int, passed: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {num}: {detail}"


def stiff_coupling(num_ions: int):
    return coupling_matrix(
        build_chain(TrapParams(2 * np.pi * 10e6, 2 * np.pi * 0.3e6, num_ions))
    )


def test_criterion_01_permanent_correctness():
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        fast, slow = permanent_ryser(a), oracles.permanent_reference(a)
        worst = max(worst, abs(fast - slow) / abs(slow))
    permanent_ryser(np.eye(2))  # trigger any JIT work outside the timed call
    big = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    t0 = time.perf_counter()
    permanent_ryser(big)
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst < 1e-10 and elapsed < 2.0,
        f"Glynn kernel vs O(n!) reference max rel err {worst:.2e} over 500 matrices (tol 1e-10); "
        f"n=20 in {elapsed:.3f} s (limit 2 s)",
    )


def test_criterion_02_exact_matches_fock_oracle():
    cases = {(2, 2): (1, 1), (3, 2): (1, 1, 0), (3, 3): (1, 1, 1),
             (4, 2): (1, 1, 0, 0), (4, 3): (1, 1, 1, 0)}
    worst_tvd = 0.0
    worst_norm = 0.0
    for (m, _), inputs in cases.items():
        for seed in range(20):
            u = haar_unitary(m, seed=1000 * m + seed)
            exact = exact_distribution(u, inputs)
            oracle = fock_oracle_distribution(u, inputs)
            worst_tvd = max(worst_tvd, total_variation_distance(exact, oracle))
            worst_norm = max(worst_norm, abs(exact.total - 1.0))
    report(
        2,
        worst_tvd < 1e-8 and worst_norm < 1e-9,
        f"permanent route vs Fock-space route over 100 Haar cases: "
        f"max TVD {worst_tvd:.2e} (tol 1e-8), max |sum-1| {worst_norm:.2e} (tol 1e-9)",
    )


def test_criterion_03_two_photon_interference():
    p_coincide = outcome_probability(BALANCED, (1, 1), (1, 1))
    p_left = outcome_probability(BALANCED, (2, 0), (1, 1))
    p_right = outcome_probability(BALANCED, (0, 2), (1, 1))
    ok = (
        p_coincide < 1e-12
        and abs(p_left - 0.5) < 1e-12
        and abs(p_right - 0.5) < 1e-12
    )
    report(
        3,
        ok,
        f"balanced splitter, two photons: P(1,1)={p_coincide:.2e}, "
        f"P(2,0)={p_left:.15f}, P(0,2)={p_right:.15f}",
    )


def test_criterion_04_chain_positions_and_rates():
    u2 = equilibrium_positions(2)
    u3 = equilibrium_positions(3)
    ref2, ref3 = oracles.two_ion_position(), oracles.three_ion_outer_position()
    pos_err = max(
        abs(u2[1] - ref2), abs(u2[0] + ref2), abs(u3[2] - ref3), abs(u3[0] + ref3)
    )
    worst_rel = 0.0
    for m in range(2, 21):
        trap = TrapParams(2 * np.pi * 10e6, 2 * np.pi * 0.3e6, m)
        chain = build_chain(trap)
        rates = coupling_matrix(chain).rates
        gaps = np.diff(chain.positions)
        for i in range(m - 1):
            rel = abs(rates[i, i + 1] * gaps[i] ** 3 / trap.hopping_scale - 1.0)
            worst_rel = max(worst_rel, rel)
    report(
        4,
        pos_err < 1e-10 and worst_rel < 1e-12,
        f"closed-form positions to {pos_err:.2e} (tol 1e-10); adjacent-rate "
        f"scale identity to {worst_rel:.2e} relative over M=2..20",
    )


def test_criterion_05_decomposition_round_trip():
    worst = 0.0
    for seed in range(200):
        m = 2 + seed % 9
        u = haar_unitary(m, seed=seed)
        worst = max(worst, unitary_distance(recompose(reck_decompose(u)), u))
    report(
        5,
        worst < 1e-9,
        f"200 Haar targets, M=2..10: worst round-trip distance {worst:.2e} (tol 1e-9)",
    )


def test_criterion_06_decoupling_echo_and_scaling():
    # (a) the basic two-mode echo cancels the evolution exactly
    rng = np.random.default_rng(6)
    echo_worst = 0.0
    for _ in range(5):
        rate = float(rng.uniform(1e3, 1e6))
        total = float(rng.uniform(1e-5, 1e-3))
        k = np.array([[0.0, rate], [rate, 0.0]])
        schedule = PulseSchedule(
            2,
            (
                EvolutionSegment(total / 2),
                PhaseEvent(total / 2, 1, np.pi),
                EvolutionSegment(total / 2),
                PhaseEvent(total, 1, np.pi),
            ),
        )
        echo_worst = max(
            echo_worst, unitary_distance(simulate_schedule(k, schedule), np.eye(2))
        )

    # (b) slice patterns cancel every non-target pair in exact integers
    averages_clean = True
    for m in range(2, 11):
        for pair in range(1, m):
            patterns = hadamard_slice_patterns(m, pair)
            for i in range(m):
                for k_ in range(i + 1, m):
                    total = sum(p.signs[i] * p.signs[k_] for p in patterns)
                    want = len(patterns) if (i + 1, k_ + 1) == (pair, pair + 1) else 0
                    averages_clean = averages_clean and total == want

    # (c) halving check: doubling the subdivision at least halves the error
    coupling = stiff_coupling(4)
    target = fourier_unitary(4)
    dist = {
        n: unitary_distance(
            simulate_schedule(coupling, compile_unitary(coupling, target, n_sub=n)),
            target,
        )
        for n in (4, 8, 16, 32)
    }
    halving = all(dist[2 * m] <= dist[m] / 2 for m in (4, 8, 16))
    report(
        6,
        echo_worst < 1e-12 and averages_clean and halving,
        f"echo distance {echo_worst:.2e} (tol 1e-12); pair averages exact: "
        f"{averages_clean}; distances {dist[4]:.2e} -> {dist[8]:.2e} -> "
        f"{dist[16]:.2e} -> {dist[32]:.2e} each at most halved",
    )


def test_criterion_07_compiled_sampling_end_to_end():
    coupling = stiff_coupling(4)
    target = fourier_unitary(4)
    achieved = simulate_schedule(coupling, compile_unitary(coupling, target, n_sub=64))
    tvd = total_variation_distance(
        exact_distribution(achieved, (1, 1, 1, 1)),
        exact_distribution(target, (1, 1, 1, 1)),
    )
    report(
        7,
        tvd < 1e-3,
        f"4-mode Fourier, 4 photons, n_sub=64: compiled vs ideal TVD {tvd:.2e} (tol 1e-3)",
    )


def test_criterion_08_detection_protocol():
    perfect = DetectionParams(readout_fidelity=1.0)
    exact_ok = True
    for occ in [(0,), (2, 0, 1), (1, 3, 0, 2, 5)]:
        for readout, n in zip(measure_chain(occ, perfect, seed=8), occ):
            exact_ok = exact_ok and readout.reported_n == n and readout.repetitions == n

    params = DetectionParams(readout_fidelity=0.99)
    trials = 100_000
    worst_pull = 0.0
    for true_n in (0, 1, 2):
        rng = np.random.default_rng(900 + true_n)
        counts: dict[int, int] = {}
        for _ in range(trials):
            r = measure_mode(true_n, params, rng).reported_n
            counts[r] = counts.get(r, 0) + 1
        pmf = oracles.reported_n_pmf(true_n, 0.99, params.max_repetitions)
        for value, p in pmf.items():
            sigma = np.sqrt(p * (1.0 - p) / trials)
            pull = abs(counts.get(value, 0) / trials - p) / max(sigma, 1e-12)
            worst_pull = max(worst_pull, pull)
    report(
        8,
        exact_ok and worst_pull < 3.0,
        f"noiseless readout exact: {exact_ok}; f=0.99 vs closed-form chain over "
        f"3x{trials} trials: worst bin pull {worst_pull:.2f} sigma (limit 3)",
    )


def test_criterion_09_sampling_statistics():
    dist = exact_distribution(BALANCED, (1, 1))
    samples = sample_outcomes(dist, 100_000, seed=9)
    freq = {
        s: np.count_nonzero((samples == s).all(axis=1)) / len(samples)
        for s in dist.outcomes
    }
    tvd = 0.5 * sum(
        abs(freq[s] - p) for s, p in zip(dist.outcomes, dist.probabilities)
    )
    first, second = io.StringIO(), io.StringIO()
    samples_to_csv(samples, first)
    samples_to_csv(sample_outcomes(dist, 100_000, seed=9), second)
    identical = first.getvalue() == second.getvalue()
    report(
        9,
        tvd < 0.01 and identical,
        f"10^5 two-photon samples: empirical TVD {tvd:.4f} (tol 0.01); "
        f"seeded rerun byte-identical: {identical}",
    )


def test_criterion_10_hopping_validity_guard():
    soft = TrapParams(2 * np.pi * 1e6, 2 * np.pi * 0.9e6, 4)
    chain = build_chain(soft)
    try:
        coupling_matrix(chain)
        rejected, message = False, "no error raised"
    except ValidityError as exc:
        rejected, message = True, str(exc)
    report(
        10,
        rejected and "validity" in message,
        f"over-coupled trap rejected: {rejected} ({message[:60]}...)",
    )

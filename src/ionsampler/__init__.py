"""Trapped-ion boson sampling toolkit.

Models the transverse phonon modes of a linear ion chain as a boson
sampling platform: equilibrium positions and hopping rates, compilation
of arbitrary mode unitaries into decoupling pulse schedules, exact
permanent-based outcome statistics with a Fock-space cross-check oracle,
and the repeat-until-bright phonon detection protocol.
"""

from .boson_stats import (
    OutcomeDistribution,
    empirical_distribution,
    enumerate_outcomes,
    exact_distribution,
    fock_oracle_distribution,
    outcome_probability,
    permanent_ryser,
    sample_outcomes,
    total_variation_distance,
)
from .config import ConfigError, RunConfig, load_config, parse_config
from .dd_compiler import (
    PulseSchedule,
    compile_beam_splitter,
    compile_elements,
    compile_unitary,
    simulate_schedule,
)
from .detection import (
    DetectionParams,
    ModeReadout,
    measure_chain,
    measure_mode,
    prepare_mode_distribution,
)
from .ion_chain import (
    ConvergenceError,
    CouplingMatrix,
    IonChain,
    TrapParams,
    ValidityError,
    build_chain,
    coupling_matrix,
    equilibrium_positions,
)
from .linear_optics import (
    BSElement,
    ElementSequence,
    PhaseElement,
    beam_splitter_unitary,
    evolve_modes,
    fourier_unitary,
    haar_unitary,
    phase_unitary,
    reck_decompose,
    recompose,
    unitary_distance,
)
from .pipeline import PipelineError, VerifyToleranceError, run_pipeline

__version__ = "0.1.0"

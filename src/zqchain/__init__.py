"""zqchain: spin-chain zero-quantum NMR simulator.

Builds XY exchange chains and the J-coupling Hamiltonian of methylene
(CH2)_n proton chains, exposes their excitation-block structure and the
closed-form tridiagonal-Toeplitz spectra, propagates density operators
exactly, and renders zero-quantum magnitude spectra with analytic
peak matching.
"""
from .analytic import (
    ToeplitzSpec,
    TransitionTable,
    aliphatic_predicted_spectrum,
    pt2_splitting_estimate,
    toeplitz_eigenvalues,
    toeplitz_eigenvector,
    transition_table,
    xy_predicted_spectrum,
)
from .dynamics import (
    InitialPattern,
    Propagator,
    Trajectory,
    initial_aliphatic,
    initial_xy,
    observe_series,
    population_op,
    wavefront_arrival,
)
from .hamiltonians import (
    AliphaticParams,
    BlockDecomposition,
    XYParams,
    build_aliphatic_full,
    build_aliphatic_restricted,
    build_xy,
    extract_blocks,
    geminal_energy,
    st_basis,
)
from .spectra import (
    PeakMatchReport,
    Spectrum,
    apodize,
    magnitude_spectrum,
    match_peaks,
    pick_peaks,
    process_trajectory,
    remove_dc,
)
from .spinops import (
    Operator,
    ProductLabel,
    ProjectorSum,
    basis_change,
    lift,
    single_spin_op,
    st_vectors,
    total_Iz,
)

__version__ = "0.1.0"

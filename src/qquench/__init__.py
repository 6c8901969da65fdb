"""Phase-quench waveform measurement simulator and reconstructor.

Quench one time-bin of a complex waveform by a phase factor, project onto a
fixed post-selection state, and invert the measured probability responses
back into the full complex amplitude envelope. Includes a seeded Gaussian
noise model, fidelity scoring, depth sweeps, CSV/JSON plumbing, and a CLI.
"""

import types as _types

from .errors import (
    DegenerateBaselineError,
    DimensionMismatchError,
    IncompleteDepthsError,
    IndexOutOfRangeError,
    NonFiniteInputError,
    QuenchError,
    SingularDepthError,
    UnknownWaveformError,
    ZeroVectorError,
)
from .fidelity import (
    FidelityScores,
    SweepResult,
    depth_sweep,
    fidelity_overall,
    score_reconstruction,
)
from .io import (
    load_response_map,
    load_reconstruction,
    load_sweep_fidelity,
    load_sweep_map,
    load_waveform,
    save_reconstruction,
    save_response_map,
    save_sweep_fidelity,
    save_sweep_map,
    save_waveform,
)
from .quench import NoiseModel, ResponseMap, scan
from .reconstruct import (
    ReconstructionResult,
    amplitude_nodes,
    gauge_fix,
    invert_general,
    phase_envelope,
    reconstruct_wavefunction,
)
from .states import (
    DEFAULT_BIN_WIDTH,
    DEFAULT_BINS,
    WAVEFORM_NAMES,
    BasisGrid,
    PostSelector,
    WavefunctionState,
    builtin_waveform,
    dft_post_selector,
    make_state,
    sample_envelope,
    uniform_post_selector,
)

__version__ = "0.1.0"

# every public name imported above; the submodules are no part of it
__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_") or isinstance(value, _types.ModuleType)))

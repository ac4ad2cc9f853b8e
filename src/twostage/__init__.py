"""Two-stage channel estimation for hybrid mmWave arrays.

Stage 1 sounds a few channel columns exhaustively and learns their dominant
column subspace; stage 2 designs a hybrid (phase shifter plus mixing) sounder
matched to that subspace and recovers every remaining column in a single
channel use.

Importing the package pins BLAS to one thread, unless the variable is already
set: a trial's matrices are too small for a second BLAS thread to help, and
sweeps get their parallelism from worker processes instead. The pin must come
before numpy is first imported, so it has no effect in a process that imported
numpy earlier.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .channel import (
    ChannelRealization,
    SystemConfig,
    generate_channel,
    steering_vector,
)
from .harness import (
    SweepRow,
    SweepSpec,
    SummaryRow,
    noise_var_from_snr_db,
    run_checks,
    run_sweep,
    summarize,
    write_rows,
)
from .numkit import RngState, sample_complex_gaussian
from .pipeline import (
    RECOVERY_MODES,
    EstimateReport,
    degrees_of_freedom,
    full_observation_baseline,
    nmse,
    two_stage_estimate,
)
from .sounding import dft_combiner, sound_and_invert_block
from .stage2 import (
    HybridSounder,
    build_dictionary,
    design_sounder_omp,
    sound_and_recover_block,
)
from .subspace import (
    SubspaceEstimate,
    estimate_stage1,
    interlacing_check,
    perturbation_bound,
    subspace_distance,
)

__version__ = "0.1.0"

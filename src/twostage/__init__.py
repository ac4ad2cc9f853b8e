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

from .channel import ChannelRealization, SystemConfig, generate_channel
from .harness import (
    SweepRow,
    SweepSpec,
    SummaryRow,
    noise_var_from_snr_db,
    run_sweep,
    summarize,
    write_rows,
)
from .numkit import sample_complex_gaussian
from .pipeline import (
    RECOVERY_MODES,
    EstimateReport,
    full_observation_baseline,
    nmse,
    two_stage_estimate,
)
from .sounding import observe
from .stage2 import (
    HybridSounder,
    build_dictionary,
    design_sounder_omp,
    recover_block,
)
from .subspace import SubspaceEstimate, estimate_stage1, subspace_distance

__version__ = "0.1.0"

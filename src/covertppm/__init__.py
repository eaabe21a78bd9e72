"""covertppm: a coding laboratory for covert communication over binary-input
discrete memoryless channels.

Multilevel-coded pulse-position modulation end to end: channel models and
divergence functionals, the PPM super channel and its per-level equivalent
channels, multistage rate planning, per-level polar codes (a message set
with zero frozen bits, built by Monte-Carlo construction) for the reliability
levels, uniform or invertible-extractor bits for the resolvability levels,
block chaining, and the warden's side (linear-code detection and covertness
estimators).
"""

from .channels import (
    DivergenceStats,
    Dmc,
    bac,
    bsc,
    divergence_stats,
    is_degraded,
    make_dmc,
    sample_outputs,
)
from .codec import (
    BlockResult,
    ChainReport,
    Session,
    build_session,
    decode_block,
    encode_block,
    run_chain,
    transmit_block,
)
from .extractor import (
    BinaryField,
    ExtractorConfig,
    ext,
    gf_inv,
    gf_mul,
    inv,
    make_field,
    two_universal_check,
)
from .levels import (
    RatePlan,
    level_capacity,
    level_capacity_bound,
    level_mi_table,
    msd_rate_plan,
    throughput_summary,
)
from .polar import (
    PolarLevelCode,
    construct_code,
    polar_transform,
    sc_decode,
)
from .ppm import (
    PpmFrame,
    SuperOutput,
    ppm_divergence_bound,
    ppm_output_divergence,
    transmit_super,
)
from .adversary import (
    DetectionReport,
    LinearCode,
    covertness_estimate,
    detect_linear_code,
    distinct_column_set,
    exact_kl_oracle,
    srl_bound,
)

__version__ = "0.1.0"

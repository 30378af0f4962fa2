"""Energy-detection constellation design and simulation for noncoherent massive SIMO."""

from .channel import (
    ChannelSpec,
    DivergentMgfError,
    InputError,
    NakagamiReal,
    Rician,
    alpha1,
    log_mgf_energy,
    nakagami_m_from_K,
    rayleigh,
    sample_channel,
    sigma_from_snr,
    u_second_moment,
)
from .rates import (
    Constellation,
    QuadraticRateOracle,
    RateOracle,
    approx_rate,
    chernoff_ser_bound,
    equalize_boundary,
    error_exponent,
)
from .design import (
    DesignConfig,
    DesignOutcome,
    UncertaintyBox,
    ask_constellation,
    design_exact,
    design_moments,
    design_robust,
    equalized_regions,
    min_distance_constellation,
    pam_constellation,
)
from .decode import (
    EnergyMLAsk,
    EnergyRegions,
    NoncoherentML,
    PilotPAM,
    ml_threshold_boundaries,
)
from .montecarlo import (
    SimReport,
    SimScenario,
    histogram,
    min_antennas,
    simulate,
)

__version__ = "0.1.0"

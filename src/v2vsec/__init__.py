"""V2V physical-layer security toolkit.

Secrecy capacity under speed-dependent geometry, fading, relaying and
ergodic power allocation, a link-mode decision protocol driven by CSI
reports, and a compressive-sensing cipher demo. ``KERNEL_BACKEND`` names
the numeric backend of the allocation kernels; it is always ``"numpy"``,
the only one, and is kept so recorded benchmark runs can say which
backend produced them.
"""

from .channel import (
    FadingModel,
    PowerBudget,
    awgn_capacity,
    db_to_linear,
    linear_to_db,
    path_loss_amplitude,
    sample_fading,
    shannon_capacity,
)
from .csenc import CsKey, SparseSignal, decrypt, encrypt, keygen
from .ergodic import (
    DEFAULT_SEED,
    ErgodicConvergenceError,
    ErgodicResult,
    ErgodicSpec,
    constant_power_capacity,
    draw_channel_states,
    ergodic_secrecy,
    estimate_on_states,
)
from .kinematics import (
    DEFAULT_TAU_S,
    BrakingProfile,
    VehicleState,
    braking_distance,
    kmh_to_ms,
    ms_to_kmh,
    safety_distance_cruise,
    safety_distance_full,
)
from .protocol import (
    CsiMessage,
    LinkDecision,
    LinkScenario,
    ProtocolConfig,
    ProtocolSession,
    RelayCandidate,
    ThresholdSchedule,
    decide,
    derive_threshold,
    encode_csi,
    parse_csi,
    select_relay,
)
from .secrecy import (
    LinkGeometry,
    RelayConfig,
    SecrecyResult,
    WiretapNoise,
    fading_secrecy,
    gaussian_wiretap,
    geometric_secrecy,
    relay_secrecy,
    velocity_secrecy,
)

KERNEL_BACKEND = "numpy"
__version__ = "0.1.0"

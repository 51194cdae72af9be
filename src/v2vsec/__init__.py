"""V2V physical-layer security toolkit.

Secrecy capacity under speed-dependent geometry, fading, relaying and
ergodic power allocation, a link-mode decision protocol driven by CSI
reports, and a compressive-sensing cipher demo.

The package namespace is lazy: each re-exported name is imported from its
submodule on first access (``_EXPORTS`` maps name to submodule), so
``import v2vsec`` loads no submodule and no numpy. Only the layers that
compute on arrays (``ergodic``, ``_kernels``, ``csenc``, ``sweeps``) import
numpy; the CSI decision path (``channel``, ``kinematics``, ``secrecy``,
``protocol``, ``scenario``) runs on plain floats.

``KERNEL_BACKEND`` names the numeric backend of the allocation kernels; it
is always ``"numpy"``, the only one, and is kept so recorded benchmark
runs can say which backend produced them.
"""

import importlib

KERNEL_BACKEND = "numpy"
__version__ = "0.1.0"

_EXPORTS = {
    "ComputationError": "_common",
    "FadingModel": "channel",
    "PowerBudget": "channel",
    "awgn_capacity": "channel",
    "db_to_linear": "channel",
    "path_loss_amplitude": "channel",
    "sample_fading": "channel",
    "CsKey": "csenc",
    "SparseSignal": "csenc",
    "decrypt": "csenc",
    "encrypt": "csenc",
    "keygen": "csenc",
    "DEFAULT_SEED": "ergodic",
    "ErgodicConvergenceError": "ergodic",
    "ErgodicResult": "ergodic",
    "ErgodicSpec": "ergodic",
    "constant_power_capacity": "ergodic",
    "draw_channel_states": "ergodic",
    "ergodic_secrecy": "ergodic",
    "estimate_on_states": "ergodic",
    "VehicleState": "kinematics",
    "kmh_to_ms": "kinematics",
    "ms_to_kmh": "kinematics",
    "safety_distance_full": "kinematics",
    "CsiMessage": "protocol",
    "LinkDecision": "protocol",
    "LinkScenario": "protocol",
    "ProtocolConfig": "protocol",
    "ProtocolSession": "protocol",
    "RelayCandidate": "protocol",
    "ThresholdSchedule": "protocol",
    "decide": "protocol",
    "derive_threshold": "protocol",
    "encode_csi": "protocol",
    "parse_csi": "protocol",
    "select_relay": "protocol",
    "LinkGeometry": "secrecy",
    "RelayConfig": "secrecy",
    "SecrecyResult": "secrecy",
    "WiretapNoise": "secrecy",
    "fading_secrecy": "secrecy",
    "gaussian_wiretap": "secrecy",
    "geometric_secrecy": "secrecy",
    "relay_secrecy": "secrecy",
    "velocity_secrecy": "secrecy",
}

__all__ = [*_EXPORTS, "KERNEL_BACKEND", "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""Sample-rate conversion."""

from __future__ import annotations

from math import gcd

import numpy as np


def resample(signal: np.ndarray, original_rate: int, target_rate: int) -> np.ndarray:
    """Polyphase resampling from ``original_rate`` to ``target_rate``.

    Used when moving between the audible band (16 kHz, where the NEC model
    operates) and the ultrasound broadcast band (96-192 kHz, where the carrier
    and the microphone non-linearity are simulated).
    """
    signal = np.asarray(signal, dtype=np.float64)
    if original_rate <= 0 or target_rate <= 0:
        raise ValueError("sample rates must be positive")
    if original_rate == target_rate:
        return signal.copy()
    divisor = gcd(int(original_rate), int(target_rate))
    up = int(target_rate) // divisor
    down = int(original_rate) // divisor
    from scipy import signal as sps

    return sps.resample_poly(signal, up, down)

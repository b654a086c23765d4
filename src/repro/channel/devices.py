"""Per-device hardware profiles for the smartphones of the paper's Table III.

The paper characterises nine COTS recorders (eight phones and one tablet) by
the carrier-frequency range over which their microphone non-linearity
demodulates the NEC shadow sound, the best carrier frequency, and the maximum
distance at which NEC remains effective.  Those measured values are encoded
here as :class:`DeviceProfile` objects and drive the simulated microphone
front-end, so the parameter study (Table III) and the multi-recorder study
(Table IV) exercise the same per-device diversity the authors observed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.channel.microphone import MicrophoneModel, Nonlinearity


@dataclass(frozen=True)
class DeviceProfile:
    """Hardware characteristics of one recorder model."""

    name: str
    brand: str
    carrier_low_khz: float
    carrier_high_khz: float
    best_carrier_khz: float
    max_distance_m: float

    # -- derived quantities --------------------------------------------------
    @property
    def ultrasound_gain(self) -> float:
        """Diaphragm/amplifier gain in the carrier band.

        Calibrated so that a device's demodulated shadow sound matches the
        target speech level at its measured maximum effective distance: a
        device with a 3.7 m reach (iPad Air 3) has a proportionally stronger
        carrier-band response than one with a 0.4 m reach (iPhone X).
        """
        return float(self.max_distance_m)

    @property
    def nonlinearity(self) -> Nonlinearity:
        """Second-order coefficient scaled with the device's effective reach."""
        a2 = 0.05 + 0.03 * self.max_distance_m
        return Nonlinearity(a1=1.0, a2=a2, a3=0.003)

    def carrier_response(self, carrier_khz: float) -> float:
        """Relative demodulation strength at ``carrier_khz`` (0..1).

        Zero outside the supported range; a raised-cosine bump peaking at the
        device's best carrier frequency inside the range.
        """
        if not self.carrier_low_khz <= carrier_khz <= self.carrier_high_khz:
            return 0.0
        peak = min(max(self.best_carrier_khz, self.carrier_low_khz), self.carrier_high_khz)
        if carrier_khz <= peak:
            span = max(peak - self.carrier_low_khz, 1e-6)
            normalised = (peak - carrier_khz) / span
        else:
            span = max(self.carrier_high_khz - peak, 1e-6)
            normalised = (carrier_khz - peak) / span
        return float(0.3 + 0.7 * np.cos(0.5 * np.pi * normalised) ** 2)

    def microphone(self) -> MicrophoneModel:
        """Build the simulated microphone front-end for this device."""
        return MicrophoneModel(
            nonlinearity=self.nonlinearity,
            ultrasound_gain=self.ultrasound_gain,
            carrier_low_hz=self.carrier_low_khz * 1000.0,
            carrier_high_hz=self.carrier_high_khz * 1000.0,
        )


#: The recorders of Table III (carrier range, best carrier, max distance).
DEVICE_TABLE: Dict[str, DeviceProfile] = {
    profile.name: profile
    for profile in [
        DeviceProfile("Moto Z4", "Motorola", 24.0, 28.0, 28.0, 3.2),
        DeviceProfile("iPhone 7 P", "Apple", 21.0, 29.0, 27.8, 0.49),
        DeviceProfile("iPhone SE2", "Apple", 23.0, 28.0, 25.2, 1.77),
        DeviceProfile("iPhone X", "Apple", 27.0, 32.0, 27.5, 0.43),
        DeviceProfile("iPad Air 3", "Apple", 22.0, 31.0, 28.0, 3.72),
        DeviceProfile("Mi 8 Lite", "Xiaomi", 24.0, 32.0, 27.4, 1.65),
        DeviceProfile("Pocophone", "Xiaomi", 22.0, 29.0, 26.3, 0.7),
        DeviceProfile("Galaxy S9", "Samsung", 25.0, 31.0, 27.2, 3.64),
    ]
}


def device_names() -> List[str]:
    """All known device names."""
    return sorted(DEVICE_TABLE)


def get_device(name: str) -> DeviceProfile:
    """Look up a device profile by model name."""
    try:
        return DEVICE_TABLE[name]
    except KeyError as exc:
        raise KeyError(f"unknown device '{name}'; choose from {device_names()}") from exc

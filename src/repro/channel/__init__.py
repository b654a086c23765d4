"""Over-the-air channel substrate: ultrasound, propagation and microphones.

The paper's prototype uses a waveform generator, an ultrasonic power
amplifier, a Vifa wide-band ultrasonic speaker, and eight COTS smartphones
whose microphone circuits demodulate the amplitude-modulated carrier through
their second-order non-linearity.  None of that hardware is available here,
so this package models the physics explicitly:

* :mod:`repro.channel.ultrasound` — AM modulation of the audible shadow wave
  onto a >20 kHz carrier at a high simulation rate;
* :mod:`repro.channel.propagation` — propagation delay, spherical spreading,
  air absorption and SPL bookkeeping;
* :mod:`repro.channel.microphone` — the microphone front-end: frequency
  response, polynomial non-linearity (``A1 V + A2 V^2 + ...``), anti-alias
  low-pass and ADC resampling;
* :mod:`repro.channel.devices` — per-smartphone hardware profiles matching
  Table III of the paper;
* :mod:`repro.channel.recorder` — a recorder that combines the above to
  capture a scene of audible and ultrasonic sources, and
  :func:`~repro.channel.recorder.record_over_the_air`, which records a scene
  an :class:`~repro.core.pipeline.NECSystem` protects through its speaker
  (:func:`~repro.channel.ultrasound.nec_speaker`);
* :mod:`repro.channel.rir` — synthetic room impulse responses (exponential
  tail or image-source shoebox) for the scenario grid's room axis;
* :mod:`repro.channel.motion` — time-varying-delay propagation for a moving
  protected speaker, with carrier Doppler emerging from the delay.
"""

from repro.channel.ultrasound import (
    ULTRASOUND_RATE,
    am_modulate,
    am_demodulate_ideal,
    UltrasoundSpeaker,
    nec_speaker,
)
from repro.channel.propagation import (
    SPEED_OF_SOUND,
    propagation_delay,
    distance_attenuation,
    air_absorption_filter,
    directivity_gain,
    propagate,
    spl_at_distance,
    amplitude_for_spl,
)
from repro.channel.microphone import MicrophoneModel, Nonlinearity
from repro.channel.devices import DeviceProfile, DEVICE_TABLE, get_device, device_names
from repro.channel.recorder import Recorder, SceneSource, record_over_the_air
from repro.channel.rir import (
    ROOM_TABLE,
    RoomModel,
    apply_rir,
    get_room,
    propagate_in_room,
    room_names,
)
from repro.channel.motion import (
    MOTION_TABLE,
    LinearMotion,
    doppler_shift_hz,
    get_motion,
    motion_names,
    propagate_moving,
)

__all__ = [
    "ULTRASOUND_RATE",
    "am_modulate",
    "am_demodulate_ideal",
    "UltrasoundSpeaker",
    "nec_speaker",
    "SPEED_OF_SOUND",
    "propagation_delay",
    "distance_attenuation",
    "air_absorption_filter",
    "propagate",
    "spl_at_distance",
    "amplitude_for_spl",
    "MicrophoneModel",
    "Nonlinearity",
    "DeviceProfile",
    "DEVICE_TABLE",
    "get_device",
    "device_names",
    "Recorder",
    "SceneSource",
    "record_over_the_air",
    "directivity_gain",
    "ROOM_TABLE",
    "RoomModel",
    "apply_rir",
    "get_room",
    "propagate_in_room",
    "room_names",
    "MOTION_TABLE",
    "LinearMotion",
    "doppler_shift_hz",
    "get_motion",
    "motion_names",
    "propagate_moving",
]

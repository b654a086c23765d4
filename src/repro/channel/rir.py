"""Synthetic room impulse responses: reverberant propagation for the grid.

The paper evaluates NEC over a direct acoustic path.  The scenario matrix
(:mod:`repro.eval.scenarios`) asks where that claim stops holding, and the
first axis is the room: a reverberant channel smears both the recorded speech
and the demodulated shadow sound in time, so the shadow no longer lands
exactly on the frames it was crafted for.

Two synthesis methods are provided behind one declarative
:class:`RoomModel`:

* ``exponential`` — a seeded noise tail with an exponential energy envelope
  matching the room's RT60 (the classic Moorer/Schroeder late-reverb model);
* ``shoebox`` — a rectangular-room image-source method (Allen & Berkley) with
  frequency-flat wall reflection, truncated at a configurable image order.

Every impulse response is normalised so that **tap 0 is the direct path with
unit gain**: convolving with a room therefore *adds* reflections to the
direct-path signal instead of replacing it, and the anechoic room (a single
unit tap) reproduces :func:`repro.channel.propagation.propagate` bit for bit.
That invariant is what lets the scenario grid share one propagation code path
for every room and is pinned by the property-test harness.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from repro.audio.signal import AudioSignal
from repro.channel.propagation import SPEED_OF_SOUND, propagate


@dataclass(frozen=True)
class RoomModel:
    """A declarative room: one axis value of the scenario grid.

    ``kind`` selects the synthesis method (``anechoic`` / ``exponential`` /
    ``shoebox``).  ``rt60_s`` is the 60 dB reverberation time;
    ``reverb_gain`` scales the whole reflection tail relative to the unit
    direct tap (the direct-to-reverberant ratio knob);
    ``ultrasound_tail_gain`` additionally scales the tail for ultrasonic
    sources — air and walls absorb ~25 kHz carriers far more strongly than
    speech, so the carrier's reverberant field is much weaker than the
    audible one.  All fields are hashable, so impulse responses are memoised
    per ``(room, sample_rate)``.
    """

    name: str
    kind: str = "exponential"
    rt60_s: float = 0.3
    reverb_gain: float = 0.5
    ultrasound_tail_gain: float = 0.25
    #: ``shoebox`` only: room dimensions and source/microphone positions (m).
    dimensions_m: Tuple[float, float, float] = (5.0, 4.0, 3.0)
    source_m: Tuple[float, float, float] = (1.5, 2.0, 1.5)
    microphone_m: Tuple[float, float, float] = (3.5, 2.0, 1.5)
    reflection_coefficient: float = 0.85
    max_image_order: int = 3
    seed: int = 0

    @property
    def is_anechoic(self) -> bool:
        return self.kind == "anechoic" or self.rt60_s <= 0.0 or self.reverb_gain <= 0.0

    def impulse_response(self, sample_rate: int, tail_gain: float = 1.0) -> np.ndarray:
        """The room's impulse response at ``sample_rate`` (tap 0 == 1.0).

        ``tail_gain`` scales the reflections only — the direct tap always
        stays at exactly 1.0 so the direct-path component of any convolved
        signal is preserved verbatim.
        """
        base = _impulse_response_cached(self, int(sample_rate))
        if tail_gain == 1.0:
            return base
        response = base * tail_gain
        response[0] = 1.0
        return response


@lru_cache(maxsize=64)
def _impulse_response_cached(room: RoomModel, sample_rate: int) -> np.ndarray:
    if room.is_anechoic:
        response = np.ones(1)
    elif room.kind == "exponential":
        response = _exponential_rir(room, sample_rate)
    elif room.kind == "shoebox":
        response = _shoebox_rir(room, sample_rate)
    else:
        raise ValueError(
            f"unknown room kind '{room.kind}'; choose anechoic/exponential/shoebox"
        )
    response.setflags(write=False)  # shared cached master: must stay immutable
    return response


def _room_rng(room: RoomModel) -> np.random.Generator:
    """A generator that depends only on the room's identity, never on callers."""
    return np.random.default_rng(
        np.random.SeedSequence([room.seed, zlib.crc32(room.name.encode())])
    )


def _exponential_rir(room: RoomModel, sample_rate: int) -> np.ndarray:
    """Seeded noise tail under an exponential RT60 envelope, unit direct tap."""
    num_taps = max(int(round(room.rt60_s * sample_rate)), 2)
    rng = _room_rng(room)
    tail = rng.standard_normal(num_taps - 1)
    # Energy decays by 60 dB over rt60_s: amplitude envelope exp(-t * 3ln10/RT60).
    times = np.arange(1, num_taps) / sample_rate
    envelope = np.exp(-3.0 * np.log(10.0) / room.rt60_s * times)
    tail = tail * envelope
    # Scale the tail's total energy relative to the unit direct tap.
    tail_energy = float(np.sum(tail**2))
    if tail_energy > 0:
        tail = tail * (room.reverb_gain / np.sqrt(tail_energy))
    return np.concatenate([[1.0], tail])


def _shoebox_rir(room: RoomModel, sample_rate: int) -> np.ndarray:
    """Rectangular-room image-source method (Allen & Berkley, frequency-flat).

    Image sources are enumerated up to ``max_image_order`` reflections per
    axis; each contributes an attenuated, fractionally delayed tap.  Delays
    are taken *relative to the direct path* (the geometric direct delay is
    already applied by :func:`repro.channel.propagation.propagate`), and the
    response is normalised so the direct tap is exactly 1.0.
    """
    length_x, length_y, length_z = room.dimensions_m
    source = np.asarray(room.source_m)
    microphone = np.asarray(room.microphone_m)
    direct_distance = float(np.linalg.norm(source - microphone))
    order = int(room.max_image_order)

    taps: Dict[int, float] = {}
    max_delay = 0.0
    for nx in range(-order, order + 1):
        for ny in range(-order, order + 1):
            for nz in range(-order, order + 1):
                for mirror in range(8):
                    sx = source[0] if not mirror & 1 else -source[0]
                    sy = source[1] if not mirror & 2 else -source[1]
                    sz = source[2] if not mirror & 4 else -source[2]
                    image = np.array(
                        [
                            sx + 2.0 * nx * length_x,
                            sy + 2.0 * ny * length_y,
                            sz + 2.0 * nz * length_z,
                        ]
                    )
                    reflections = (
                        abs(nx) + abs(ny) + abs(nz)
                        + bin(mirror).count("1")
                    )
                    if reflections == 0:
                        continue  # the direct path: contributed as the unit tap
                    if reflections > 2 * order:
                        continue
                    distance = float(np.linalg.norm(image - microphone))
                    delay_s = (distance - direct_distance) / SPEED_OF_SOUND
                    if delay_s < 0:
                        continue
                    amplitude = (
                        room.reflection_coefficient**reflections
                        * direct_distance
                        / max(distance, 1e-9)
                    )
                    position = delay_s * sample_rate
                    index = int(np.floor(position))
                    fraction = position - index
                    taps[index] = taps.get(index, 0.0) + amplitude * (1.0 - fraction)
                    taps[index + 1] = taps.get(index + 1, 0.0) + amplitude * fraction
                    max_delay = max(max_delay, position)

    response = np.zeros(int(np.ceil(max_delay)) + 2)
    for index, amplitude in taps.items():
        if 0 < index < response.size:
            response[index] += amplitude
    # Scale the reflections to the requested direct-to-reverb balance, then
    # pin the direct tap to exactly 1.0 (delay 0 == the direct arrival).
    tail_energy = float(np.sum(response**2))
    if tail_energy > 0:
        response *= room.reverb_gain / np.sqrt(tail_energy)
    response[0] = 1.0
    return response


def apply_rir(signal: AudioSignal, impulse_response: np.ndarray) -> AudioSignal:
    """Convolve a propagated signal with a room impulse response.

    The output keeps the input's length (reflections arriving after the
    signal's end are dropped, as a fixed-length recording would) and its
    ``reference_spl`` bookkeeping — the direct tap is unity, so the SPL of the
    direct arrival is unchanged.
    """
    impulse_response = np.asarray(impulse_response, dtype=np.float64).reshape(-1)
    if impulse_response.size == 1 and impulse_response[0] == 1.0:
        return signal
    from scipy import signal as sps

    convolved = sps.fftconvolve(signal.data, impulse_response)[: signal.num_samples]
    result = AudioSignal(convolved, signal.sample_rate)
    result.reference_spl = signal.reference_spl
    return result


#: The scenario grid's room axis.  ``anechoic`` is the paper's direct path.
ROOM_TABLE: Dict[str, RoomModel] = {
    "anechoic": RoomModel("anechoic", kind="anechoic", rt60_s=0.0, reverb_gain=0.0),
    "small_office": RoomModel("small_office", kind="exponential", rt60_s=0.25, reverb_gain=0.35),
    "conference_room": RoomModel(
        "conference_room",
        kind="shoebox",
        rt60_s=0.45,
        reverb_gain=0.6,
        dimensions_m=(8.0, 6.0, 3.0),
        source_m=(2.0, 3.0, 1.5),
        microphone_m=(6.0, 3.0, 1.5),
        reflection_coefficient=0.9,
    ),
    "concrete_lobby": RoomModel(
        "concrete_lobby", kind="exponential", rt60_s=0.8, reverb_gain=1.0
    ),
}


def get_room(room: "RoomModel | str") -> RoomModel:
    """Look up a room by name (or pass a :class:`RoomModel` through)."""
    if isinstance(room, RoomModel):
        return room
    try:
        return ROOM_TABLE[room]
    except KeyError as exc:
        raise KeyError(
            f"unknown room '{room}'; choose from {sorted(ROOM_TABLE)}"
        ) from exc


def room_names() -> Tuple[str, ...]:
    return tuple(sorted(ROOM_TABLE))


def propagate_in_room(
    signal: AudioSignal,
    distance_m: float,
    room: "RoomModel | str" = "anechoic",
    ultrasound: bool = False,
    **propagate_kwargs,
) -> AudioSignal:
    """Propagate over ``distance_m`` of air, then add the room's reflections.

    The direct path goes through :func:`repro.channel.propagation.propagate`
    unchanged (delay, spherical spreading, absorption, SPL bookkeeping); the
    room's impulse response — unit direct tap plus reflections — is convolved
    on top.  With the anechoic room this *is* ``propagate``, bit for bit.
    ``ultrasound=True`` applies the room's reduced ultrasonic tail gain.
    """
    room = get_room(room)
    direct = propagate(signal, distance_m, **propagate_kwargs)
    if room.is_anechoic:
        return direct
    response = room.impulse_response(
        signal.sample_rate,
        tail_gain=room.ultrasound_tail_gain if ultrasound else 1.0,
    )
    return apply_rir(direct, response)

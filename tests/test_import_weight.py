"""What the protection path loads: a deterministic import-weight gate.

The protection path runs on numpy alone.  ``scipy.fft`` would double its
import time and memory and load a second, scipy-bundled OpenBLAS;
``scipy.signal`` and the ``scipy.stats`` it pulls in would add as much again
(docs/architecture.md, "Import layering").  So no ``scipy`` module may load
on that path, neither at import nor at the first enroll, ``protect`` or
served segment.  The channel simulator, the speech synthesiser and the
trainer are code the served path never runs.

Each check runs in a fresh interpreter and asserts which modules are in
``sys.modules`` afterwards: no timing, no RSS figure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("scipy.signal", "scipy.stats")

#: The modules a benchmark child imports: input synthesis, training and
#: serving, all at module level.
WORKLOAD_IMPORTS = (
    "from repro.audio.corpus import SyntheticCorpus\n"
    "from repro.audio.mixing import mix_at_snr\n"
    "from repro.audio.signal import AudioSignal\n"
    "from repro.core.config import NECConfig, TrainingConfig\n"
    "from repro.core.encoder import SpectralEncoder\n"
    "from repro.core.pipeline import NECSystem\n"
    "from repro.core.seeding import derive_seed\n"
    "from repro.core.selector import Selector\n"
    "from repro.core.training import ExampleStream, SelectorTrainer, TrainingExample\n"
    "from repro.serving.registry import EnrollmentRegistry\n"
    "from repro.serving.service import ProtectionService\n"
)


#: Enroll, ``protect`` and one served segment at the deployment geometry,
#: on an untrained system and noise: what the served path runs at first use.
PROTECT_AND_SERVE = (
    "import numpy as np\n"
    "from repro.core.config import NECConfig\n"
    "from repro.core.pipeline import NECSystem\n"
    "from repro.audio.signal import AudioSignal\n"
    "from repro.serving import EnrollmentRegistry, ProtectionService\n"
    "config = NECConfig.default()\n"
    "rng = np.random.default_rng(0)\n"
    "clip = AudioSignal(rng.normal(scale=0.1, size=config.segment_samples), config.sample_rate)\n"
    "system = NECSystem(config, seed=0)\n"
    "system.enroll([clip])\n"
    "assert system.protect(clip).shadow_wave.num_samples == clip.num_samples\n"
    "with ProtectionService(EnrollmentRegistry(None, config=config), system=system) as service:\n"
    "    service.enroll('alice', [clip])\n"
    "    session = service.open_session('alice')\n"
    "    session.feed(clip.data)\n"
    "    assert len(session.close(timeout=120.0)) == 1\n"
)


def _modules_after(script: str) -> set:
    """Run ``script`` in a fresh interpreter; the names in its ``sys.modules``."""
    probe = script + "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=300,
    )
    return set(json.loads(completed.stdout.strip().splitlines()[-1]))


def _loaded_after(script: str, modules) -> dict:
    """Run ``script`` in a fresh interpreter; which of ``modules`` it loaded."""
    loaded = _modules_after(script)
    return {name: name in loaded for name in modules}


@pytest.mark.parametrize(
    "script",
    [
        "import repro.serving\n",
        WORKLOAD_IMPORTS,
        PROTECT_AND_SERVE,
    ],
    ids=["import-serving", "workload-imports", "protect-and-serve"],
)
def test_protection_path_loads_no_scipy(script):
    """No ``scipy`` module at import, before the first synthesis, or at first use."""
    scipy_modules = sorted(name for name in _modules_after(script) if name.split(".")[0] == "scipy")
    assert scipy_modules == [], scipy_modules[:10]


def test_protection_path_imports_no_simulator():
    """``import repro.serving``, and with it ``repro`` and ``repro.core``."""
    forbidden = HEAVY + (
        "repro.channel",
        "repro.eval",
        "repro.audio.corpus",
        "repro.audio.voice",
        "repro.core.training",
    )
    loaded = _loaded_after("import repro.serving\n", forbidden)
    assert not any(loaded.values()), {name for name, is_in in loaded.items() if is_in}


def test_audio_signal_imports_alone():
    loaded = _loaded_after(
        "from repro.audio.signal import AudioSignal\n",
        HEAVY + ("repro.audio.corpus", "repro.audio.voice", "repro.audio.noise", "repro.audio.mixing"),
    )
    assert not any(loaded.values()), {name for name, is_in in loaded.items() if is_in}


def test_channel_recorder_imports_no_synthesiser():
    """The recorder mixes signals; it never synthesises speech."""
    loaded = _loaded_after(
        "import repro.channel.recorder\n", ("repro.audio.corpus", "repro.audio.voice")
    )
    assert not any(loaded.values()), {name for name, is_in in loaded.items() if is_in}


def test_workload_imports_defer_scipy_signal_to_first_synthesis():
    before = _loaded_after(WORKLOAD_IMPORTS, HEAVY)
    assert before == {name: False for name in HEAVY}
    after = _loaded_after(
        WORKLOAD_IMPORTS
        + "utterance = SyntheticCorpus(num_speakers=2, sample_rate=8000, seed=0)"
        + ".utterance('spk000', seed=0, duration=0.5)\n"
        + "assert utterance.audio.num_samples > 0 and utterance.audio.rms() > 0\n",
        ("scipy.signal",),
    )
    assert after == {"scipy.signal": True}


def test_lazy_package_names_resolve():
    """The names the package ``__init__``s load on first access still work."""
    import repro.audio
    import repro.core
    from repro.audio.corpus import SyntheticCorpus
    from repro.audio.mixing import joint_conversation
    from repro.core.training import SelectorTrainer

    assert repro.audio.SyntheticCorpus is SyntheticCorpus
    assert repro.audio.joint_conversation is joint_conversation
    assert repro.core.SelectorTrainer is SelectorTrainer
    with pytest.raises(AttributeError):
        repro.audio.no_such_name
    with pytest.raises(AttributeError):
        repro.core.no_such_name

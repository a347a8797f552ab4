import numpy as np
import pytest

from spotlighter.config import RunConfig
from spotlighter.features import generate_base_novel
from spotlighter import pipeline
from spotlighter.pipeline import train

# small everywhere: keeps the unit suite fast while exercising both tiers
TINY = dict(d=16, n_tok=8, n_classes=3, signal_tokens=2, noise_sigma=0.3,
            distractor_pool=6, shots=3, test_per_class=4, k_act=4, n_proto=2,
            heads=2, epochs=2, seed=11)


@pytest.fixture(scope="session")
def tiny_config() -> RunConfig:
    return RunConfig(**TINY)


@pytest.fixture(scope="session")
def tiny_episode(tiny_config):
    return generate_base_novel(tiny_config.synth_spec(), tiny_config.shots,
                               tiny_config.test_per_class)


@pytest.fixture(scope="session")
def tiny_state(tiny_config, tiny_episode):
    base_train, _, _ = tiny_episode
    return train(tiny_config, base_train)


@pytest.fixture()
def rng():
    return np.random.default_rng(123)


@pytest.fixture()
def corrupt_gradient(monkeypatch):
    """Shift the first coordinate of every analytic fusion gradient by 1e-2,
    a fault the gradient check must notice."""
    exact = pipeline.reps_bwd

    def shifted(*args):
        grads = exact(*args)
        grads[0] += 1e-2  # irm0.wq[0, 0], first in wire order
        return grads

    monkeypatch.setattr(pipeline, "reps_bwd", shifted)

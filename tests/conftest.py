import numpy as np
import pytest

from queuemc.clocks import VirtualClock, WallClock
from queuemc.fabric import QueueFabric
from queuemc.plane import BackendModel, attach_backend


def gaussian_target(params, datasets):
    """Standard-normal log density in the first coordinate (flat elsewhere)."""
    return -0.5 * float(params[0]) ** 2


@pytest.fixture
def fast_model():
    """Backend model with a short modeled likelihood so virtual runs stay small."""
    return BackendModel(likelihood_duration_s=1.0)


@pytest.fixture
def sim_setup(fast_model):
    """(fabric, input_q, output_q, plane) on a virtual clock, stub-friendly."""
    def build(model=None, likelihood_fn=None, store=None, seed=0,
              record_deliveries=False):
        fabric = QueueFabric(VirtualClock(), record_deliveries=record_deliveries)
        input_q = fabric.create_queue("input")
        output_q = fabric.create_queue("output")
        plane = attach_backend(input_q, output_q, "sim",
                               model if model is not None else fast_model,
                               likelihood_fn=likelihood_fn, store=store, seed=seed)
        return fabric, input_q, output_q, plane
    return build


@pytest.fixture
def local_setup(fast_model):
    def build(model=None, likelihood_fn=None, store=None, pool_size=4,
              record_deliveries=False):
        fabric = QueueFabric(WallClock(), record_deliveries=record_deliveries)
        input_q = fabric.create_queue("input")
        output_q = fabric.create_queue("output")
        plane = attach_backend(input_q, output_q, "local",
                               model if model is not None else fast_model,
                               likelihood_fn=likelihood_fn, store=store,
                               pool_size=pool_size)
        return fabric, input_q, output_q, plane
    return build


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

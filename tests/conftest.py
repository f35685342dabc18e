import dataclasses
import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")


def dataset_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


@pytest.fixture
def script_val_f1(monkeypatch):
    """Steer early stopping: ``script_val_f1(score)`` makes the n-th call of
    ``training.evaluate`` from then on report F1 ``score(n)``, which is
    epoch n's validation F1 in ``train_loop``. The rest of the metrics are
    computed as usual."""
    from nohgnn import training

    inner = training.evaluate

    def install(score):
        calls = []

        def scripted(*args, **kwargs):
            calls.append(None)
            return dataclasses.replace(inner(*args, **kwargs), f1=float(score(len(calls))))

        monkeypatch.setattr(training, "evaluate", scripted)

    return install

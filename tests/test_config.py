import pytest

from sugeo.config import DEFAULT_N_CAP, PAULI_N_MAX, env_n_cap
from sugeo.errors import InvalidConfig


def test_env_n_cap_default(monkeypatch):
    monkeypatch.delenv("SUGEO_N_CAP", raising=False)
    assert env_n_cap() == DEFAULT_N_CAP
    assert env_n_cap(default=2) == 2


def test_env_n_cap_clamps(monkeypatch):
    monkeypatch.setenv("SUGEO_N_CAP", "2")
    assert env_n_cap() == 2
    monkeypatch.setenv("SUGEO_N_CAP", "99")
    assert env_n_cap() == PAULI_N_MAX


@pytest.mark.parametrize("raw", ["abc", "2.5"])
def test_env_n_cap_rejects_unparsable(monkeypatch, raw):
    monkeypatch.setenv("SUGEO_N_CAP", raw)
    with pytest.raises(InvalidConfig, match=f"SUGEO_N_CAP='{raw}'"):
        env_n_cap()

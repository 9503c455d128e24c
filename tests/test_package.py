"""The package's public names."""
import ecgdenoise


def test_every_export_exists():
    assert sorted(set(ecgdenoise.__all__)) == sorted(ecgdenoise.__all__)
    assert [name for name in ecgdenoise.__all__
            if not hasattr(ecgdenoise, name)] == []
    namespace = {}
    exec("from ecgdenoise import *", namespace)
    assert set(ecgdenoise.__all__) <= set(namespace)

"""The package's public names."""
import ecgdenoise


def test_every_export_exists():
    assert sorted(set(ecgdenoise.__all__)) == sorted(ecgdenoise.__all__)
    assert [name for name in ecgdenoise.__all__
            if not hasattr(ecgdenoise, name)] == []
    namespace = {}
    exec("from ecgdenoise import *", namespace)
    assert set(ecgdenoise.__all__) <= set(namespace)


def test_the_fits_come_with_their_denoisers():
    # a fit from the package root can be applied from the package root
    for name in ("fit_factor_analysis", "fit_mog_fa",
                 "fa_posterior_mean_batch", "mog_fa_posterior_mean_batch",
                 "oracle_bayes_batch"):
        assert name in ecgdenoise.__all__

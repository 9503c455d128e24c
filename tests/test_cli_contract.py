"""The CLI's contract, over every command's flags: ``main`` returns 0 or
1 and never raises, prints one strict JSON object (an error document when
it returns 1), and leaves no output and no staging file behind a failure.

Sizes stay small (n <= 8, B <= 4, d <= 64). Each flag draws from usual
values and from edge values (zero, negative, NaN, infinite, huge,
malformed); an invocation takes edge values for at most one flag, so most
reach the command's work and the rest fail on the one edge value. Flags
are given as ``--flag=value``: argv that argparse itself refuses exits 2
by argparse's convention, before ``main`` runs a command. Warnings are
errors, so a numeric warning that escapes a command fails the test too.
"""
import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ecgdenoise.cli import main

USUAL_TAUS = ["5", "uniform:2,20", "0.5", "20"]
EDGE_TAUS = ["1e-300", "1e300", "0", "-1", "nan", "inf", "uniform:5,2",
             "uniform:2", "abc", ""]
USUAL_ESTIMATORS = ["mle", "oracle_bayes", "fa", "fa:estimated", "mog_fa",
                    "mog_fa:estimated"]
EDGE_ESTIMATORS = ["vae", "mle:estimated", "fa:bogus", ""]
#: Values of the files the commands read, by placeholder (see _resolved).
DATASETS = ["@ds", "@one-beat"]
MISSING = ["@missing", "@nowhere/file"]


def values(*items):
    return st.sampled_from(items)


def tau_lists(taus):
    return st.lists(st.sampled_from(taus), min_size=1, max_size=2) \
        .map(";".join)


@st.composite
def flags(draw, specs):
    """``--flag=value`` for each ``(flag, usual, edge)`` of ``specs``: each
    value drawn from its usual strategy but for at most one flag, which
    draws from its edge one. A value of None leaves the flag out; a list
    repeats it."""
    edge = draw(st.none() | st.sampled_from([flag for flag, _, _ in specs]))
    argv = []
    for flag, usual, edges in specs:
        value = draw(edges if flag == edge else usual)
        for item in value if isinstance(value, list) else [value]:
            if item is not None:
                argv.append(f"{flag}={item}")
    return argv


@st.composite
def simulation_specs(draw):
    """The flags ``simulate`` and ``benchmark`` share, at a small size."""
    d = draw(st.integers(8, 64))
    return [
        ("--n-samples", st.integers(1, 8), values(0, -1)),
        ("--d", st.just(d), values(0, -1)),
        ("--fs", st.none() | st.integers(d, 1000),
         values("0", "-1", "nan", "inf", "200.1", "1e8", "1e308")),
        ("--r-offset", st.none() | st.integers(0, d - 1), values(-1, d)),
        ("--jitter", values(None, "0", "0.3", "0.9"),
         values("-0.1", "1", "nan")),
        ("--gain", values(None, "27.5", "1"),
         values("0", "-1", "nan", "inf", "1e308")),
        ("--lengthscale", values(None, "5e-4", "0.02"),
         values("0", "-1", "nan", "inf", "1e308")),
        ("--smoothness", values(None, "0.5", "1.5", "2.5"),
         values("1", "0", "nan")),
    ]


@st.composite
def simulate_argv(draw):
    return ["simulate", *draw(flags([
        *draw(simulation_specs()),
        ("--beats", st.integers(1, 4), values(0, -1)),
        ("--tau", st.none() | st.sampled_from(USUAL_TAUS),
         st.sampled_from(EDGE_TAUS)),
        ("--seed", st.integers(0, 2**32 - 1), values(-1, 2**64)),
    ]))]


@st.composite
def benchmark_argv(draw):
    usual_grid = st.lists(st.integers(1, 4), min_size=1, max_size=3,
                          unique=True).map(lambda b: ",".join(map(str, b)))
    return ["benchmark", *draw(flags([
        *draw(simulation_specs()),
        ("--beats-grid", usual_grid, values("0", "x", "", "2.5", "2,2")),
        ("--seed", st.integers(0, 2**32 - 1), values(None, -1)),
        ("--taus", st.none() | tau_lists(USUAL_TAUS), tau_lists(EDGE_TAUS)),
        ("--estimator", st.lists(st.sampled_from(USUAL_ESTIMATORS),
                                 max_size=3, unique=True),
         st.lists(st.sampled_from(EDGE_ESTIMATORS + USUAL_ESTIMATORS),
                  min_size=1, max_size=3)),
        ("--latent-dim", values(None, "1", "3", "7", "scree", "scree:-0.3"),
         values("0", "-2", "2.5", "x", "scree:nan", "scree:inf", "scree:x")),
        ("--components", values(None, 1, 2, 3), values(0, -1)),
        ("--config", st.none(), values(*MISSING, "@report",
                                       "@ds/manifest.json")),
    ]))]


@st.composite
def dataset_argv(draw):
    """estimate-noise, denoise or plot-data on the files of ``inputs``."""
    dataset = ("--dataset", values(*DATASETS), values(*MISSING))
    command = draw(values("estimate-noise", "denoise", "plot-data"))
    if command == "estimate-noise":
        specs = [dataset]
    elif command == "denoise":
        specs = [dataset, ("--estimator", st.none()
                           | st.sampled_from(USUAL_ESTIMATORS + ["fa:truth"]),
                           st.sampled_from(EDGE_ESTIMATORS))]
    else:
        kinds = values("beats-overlay", "tau-hist", "beat-count-hist",
                       "mse-table")
        specs = [
            ("--kind", kinds, kinds),  # argparse refuses any other
            ("--dataset", st.none() | values(*DATASETS), values(*MISSING)),
            ("--report", values(None, "@report"),
             values(*MISSING, "@ds/manifest.json", "@estimates")),
            ("--sample", values(None, "s00000", "s00005"),
             values("s00099", "")),
            ("--estimates", values(None, "@estimates"),
             values(*MISSING, "@report")),
            ("--bins", values(None, 1, 20), values(0, -3)),
        ]
    return [command, *draw(flags(specs))]


@st.composite
def invocations(draw):
    """A command's argv, its ``--out`` last: in a directory of its own, or
    under one that does not exist."""
    argv = draw(simulate_argv() | benchmark_argv() | dataset_argv())
    return [*argv, draw(values("--out=@out", "--out=@nowhere/out"))]


#: The files the commands that read files are given, by placeholder.
INPUTS = ("ds", "one-beat", "estimates", "report", "missing")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A dataset, one of single beats, denoise's estimates of the first,
    a benchmark report and a path that does not exist."""
    root = tmp_path_factory.mktemp("contract")
    paths = {name: root / name for name in INPUTS}
    size = ["--n-samples", "6", "--d", "40", "--fs", "200", "--r-offset",
            "13", "--seed", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (
                ["simulate", *size, "--beats", "3", "--out",
                 str(paths["ds"])],
                ["simulate", *size, "--beats", "1", "--out",
                 str(paths["one-beat"])],
                ["denoise", "--dataset", str(paths["ds"]), "--estimator",
                 "mle", "--out", str(paths["estimates"])],
                ["benchmark", *size, "--beats-grid", "2", "--taus", "4",
                 "--estimator", "mle", "--out", str(paths["report"])]):
            assert main(argv) == 0, argv
    return paths


def _resolved(arg, paths):
    """``arg`` with an ``@name[/rest]`` placeholder after its ``=`` made
    the path ``paths[name] / rest``."""
    flag, _, value = arg.partition("=")
    if not value.startswith("@"):
        return arg
    name, _, rest = value[1:].partition("/")
    return f"{flag}={paths[name] / rest if rest else paths[name]}"


def _refuse_constant(constant):
    raise ValueError(f"stdout holds {constant}, which is not strict JSON")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=invocations())
# 4e8 RK4 steps per cycle, refused before any step
@example(argv=["simulate", "--n-samples=1", "--beats=2", "--fs=1e8",
               "--seed=1", "--out=@out"])
# a negative seed, refused naming the seed rather than in SeedSequence
@example(argv=["simulate", "--n-samples=2", "--beats=2", "--d=40",
               "--fs=200", "--r-offset=13", "--seed=-1", "--out=@out"])
# one recording: the scree rule once took the covariance of one row, and
# np.cov's RuntimeWarning escaped the command
@example(argv=["benchmark", "--n-samples=1", "--d=8", "--fs=192",
               "--r-offset=0", "--beats-grid=3", "--seed=1",
               "--latent-dim=scree:-0.3", "--out=@out"])
def test_every_invocation_answers_in_json(inputs, argv):
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        paths = {**inputs, "out": work / "out", "nowhere": work / "nowhere"}
        argv = [_resolved(arg, paths) for arg in argv]
        stdout = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 1), argv
        document = json.loads(stdout.getvalue(),
                              parse_constant=_refuse_constant)
        assert isinstance(document, dict), argv
        if code == 1:
            assert list(document) == ["error"], (argv, document)
            assert set(document["error"]) == {"type", "message"}, argv
            out = Path(argv[-1].partition("=")[2])
            assert not out.exists(), (argv, document)
            staged = [p.name for p in work.iterdir()
                      if p.name.endswith(".tmp")]
            assert staged == [], (argv, document)

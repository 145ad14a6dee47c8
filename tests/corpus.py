"""Shared test corpus, read by several suites:

- ``CORPUS``: 10 triangular maps (N in {1,2,3}, degrees <= 3), with a small
  base point for each and the index pairs of the product tests;
- ``first_case_cfg``: the ``first_case`` run on E1 with overrides;
- ``CASES``: nine fixed run configs, each with the sha256 of every file it
  writes.  Refactors must leave every byte of every report unchanged; a
  change that alters an output on purpose must re-record the affected
  digests here and say why;
- ``trace_targets``: the functions ``bench/tracing.py`` wraps;
- ``bench_workloads``: ``bench/workloads.py``, which writes the benchmark's
  inputs.

No suite imports another suite: what two of them share lives here, in
``oracle.py`` or in ``sympy_oracle.py``.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

from arithdyn import triangular_map
from arithdyn.experiments import ExperimentConfig

E1 = triangular_map(["x1^3+x2", "x2^2+1"])
SECOND_CASE_MAP = triangular_map(["x1*x2+1", "x2^2"])

CORPUS = [
    triangular_map(["x1^2"]),
    triangular_map(["x1^3"]),
    E1,
    SECOND_CASE_MAP,
    triangular_map(["x1^2+x2", "x2"]),
    triangular_map(["x1^3+x2", "x2^3"]),
    triangular_map(["x1^2", "x2^3+x3", "x3^2"]),
    triangular_map(["x1^2+x3", "x2^2+x3", "x3^2"]),
    triangular_map(["x1^3", "x2^2+x3", "x3^2+1"]),
    triangular_map(["x1+x2", "x2+1"]),
]

BASE_POINTS = [
    (Fraction(2),),
    (Fraction(1, 2),),
    (Fraction(1, 256), Fraction(1, 2)),
    (Fraction(1), Fraction(1, 2)),
    (Fraction(2), Fraction(3)),
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(2), Fraction(1, 2), Fraction(3)),
    (Fraction(1, 2), Fraction(2, 3), Fraction(3)),
    (Fraction(2), Fraction(1, 2), Fraction(1, 3)),
    (Fraction(5), Fraction(7)),
]

PRODUCT_PAIRS = [(0, 1), (2, 3), (4, 8), (5, 9), (6, 7)]


E1_DOC = {"dimension": 2, "components": ["x1^3+x2", "x2^2+1"]}
SECOND_DOC = {"dimension": 2, "components": ["x1*x2+1", "x2^2"]}
# coefficients with denominators > 1, so products reduce by a content gcd
RATIONAL_DOC = {"dimension": 2, "components": ["3/2*x1^3 + 1/5*x2", "x2^2 + 1/3"]}

DEGREES_E1 = "93a34f7f94bc893fd385a39f2ae182990c6da9e3c380caa05ee80ea45955ed04"

CASES = {
    "first_case_n6_seed0": (
        dict(map=E1_DOC, mode="first_case", n_max=6, samples=12, seed=0),
        {
            "degrees.csv": DEGREES_E1,
            "density.csv": "638ed0dbc0c3ec8300dcd41a63d7840d615588c0b0e48a276199fab54dca1f4b",
            "heights_sample0.csv": "d902f3d54547a2175309321ee2f756540674d7f3ebf4a224c2f5f5ece5f1fdc3",
            "orbit_sample0.csv": "5e40f3c09ec301c58527dd3a70ec732485c30d90de7f6bf33e0323b17c0585dd",
            "sector.csv": "5d5f54f1ab574a5b3ce7b7f9c168c841ccfeb8cd3f8a08abe62424ff4a901741",
            "summary.json": "b94d288aaedf7a6fa6cefa6cb9050f205f3caac06a4a2c0deb4d456c4b0821d2",
        },
    ),
    # n_max below the 5-step disjointness prefix: the orbit still reaches n = 5
    "first_case_n4_seed5": (
        dict(map=E1_DOC, mode="first_case", n_max=4, samples=3, seed=5),
        {
            "degrees.csv": DEGREES_E1,
            "density.csv": "8373c3efb8ef194054b031a3c82a4828cd4981e06f9128bc95969852dd00a034",
            "heights_sample0.csv": "46c3a88fa5d9200121565662f11d2161c9f126bf3d2628e7b1512745fac05f9f",
            "orbit_sample0.csv": "7f97c7b3773725c5dda7da462c494fa3a15ad105b02b37ea51fede2864440c4a",
            "sector.csv": "4951103f805c673ff0b51459e38ef37ac27c46a28d7278935297bb124ba503e8",
            "summary.json": "80569042d5d7cdf06fbd8262cf58db28b9bfd41f921e29fa2430862a91f090c9",
        },
    ),
    "second_case_n2": (
        dict(map=SECOND_DOC, mode="second_case_n2", point=["1", "1/2"], n_max=8),
        {
            "degrees.csv": "d37cca7826a9611197aa1862e7485012a4d0ea6328598ecaaeca868d9d9ee239",
            "growth.csv": "6041955092934fdd6abff135acab0c6a02a2dd35c0c9c7502fba0167813481d5",
            "heights.csv": "50c69dc6aa1e82a0fda887766f27788c6a275f33cfa554ccb249c7040d5a6862",
            "summary.json": "7f41b05a930d3908935c43b14ba7f7786c66fab016090b71634a3f3f35609b4b",
        },
    ),
    "product": (
        dict(
            map={"dimension": 1, "components": ["x1^2"]},
            map_b={"dimension": 1, "components": ["x1^3"]},
            mode="product",
            point=["2", "2"],
            n_max=8,
        ),
        {
            "product_heights.csv": "21b2a52e5b9533d313b2a1b62bf747635788b76b03d100ce650f05afdb1b1532",
            "summary.json": "d990a08ce28006c7393065fbcb4313478e43e6a0e6b3751626e1669c0fffd4ac",
        },
    ),
    # the benchmark's 2-D product: a first-case factor and a second-case factor
    "product_e1_second_case": (
        dict(
            map=E1_DOC,
            map_b=SECOND_DOC,
            mode="product",
            point=["1/256", "1/2", "1", "1/2"],
            n_max=10,
        ),
        {
            "product_heights.csv": "d8d0c1360cdb1238b7288d3f7ff1a8231df38610fd8633a2a71cff105f43ccd6",
            "summary.json": "656210012f369b19fec48f2a429ff50349e3da8a33a9a25897143a8e39f7c030",
        },
    ),
    "iterate_check": (
        dict(
            map=E1_DOC,
            mode="iterate_check",
            point=["1/256", "1/2"],
            iterate_power=2,
            n_max=3,
        ),
        {
            "summary.json": "ecf3a8a260c25bbb70a8582e4329e841cdd41a2bb7ee2e73512ede60a3d29b32",
        },
    ),
    # f^2 of a map with rational coefficients, printed and evaluated at a point
    "iterate_check_rational": (
        dict(
            map=RATIONAL_DOC,
            mode="iterate_check",
            point=["1/7", "2/3"],
            iterate_power=2,
            n_max=3,
        ),
        {
            "summary.json": "850d0d30338321797c1b51a4f15c0c279c23ec63c292d55a1c80b40dbf32d867",
        },
    ),
    # an odd sector prime: valuations go through the division chain, not bits
    "first_case_p3": (
        dict(map=E1_DOC, mode="first_case", prime=3, n_max=6, samples=6, seed=1),
        {
            "degrees.csv": DEGREES_E1,
            "density.csv": "8156e7210198000ef51e02f806c58f64fb9ff6963d7ae29db2faf9aa59403445",
            "heights_sample0.csv": "9df91587598bbb7f20d11b55eac30929418094a0d6cc52f262a4554c6bfaf5cc",
            "orbit_sample0.csv": "7990bbb4d45da9a2b7110181ceba3fcf5a987e0f550fd82f5f40fd8ac3b66655",
            "sector.csv": "75236c295db0e76b234978ddd109143bb57cea74bfada3e42160f676c875f7cf",
            "summary.json": "a50fa42df058ad47900c5574f19ad2b0f2fad8ac80854312f73317c2906fa1d3",
        },
    ),
    "second_case_n2_p3": (
        dict(map=SECOND_DOC, mode="second_case_n2", prime=3, point=["1", "2/3"], n_max=8),
        {
            "degrees.csv": "d37cca7826a9611197aa1862e7485012a4d0ea6328598ecaaeca868d9d9ee239",
            "growth.csv": "6041955092934fdd6abff135acab0c6a02a2dd35c0c9c7502fba0167813481d5",
            "heights.csv": "c626034e2f52f9cd940452371330a970fbff4f732e8225da89e0640d517e4ecf",
            "summary.json": "06dc97afaae0d30ef5f118732a8c56cc7ae533ccb5e5b969db71184a4090fb99",
        },
    ),
}


def first_case_cfg(**overrides):
    base = dict(map=E1_DOC, mode="first_case", n_max=6, samples=12, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def trace_targets():
    """``TARGETS`` of ``bench/tracing.py``, read without importing ``bench``."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def bench_workloads():
    """``bench/workloads.py``, loaded once from its file without importing ``bench``."""
    if "bench_workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up there
        spec.loader.exec_module(module)
    return sys.modules["bench_workloads"]

import os
import shutil

# Keep BLAS single-threaded: the suite's matrices are small enough that a
# thread pool only adds latency, and worker-process tests assume it.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from spde2d import _cbuild, _kernels_py
from spde2d.model import ModelParams


@pytest.fixture
def reference_params() -> ModelParams:
    """Reference coefficient set used throughout the experiments."""
    return ModelParams(theta0=0.0, theta1=0.2, eta1=0.2, theta2=0.2,
                       sigma=1.0, alpha=0.5)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def compiled_philox(tmp_path_factory):
    """``_philox.c`` built by ``_cbuild.build`` into a temporary directory
    and loaded as ``spde2d._philox``; skips where there is no C compiler."""
    if shutil.which(_cbuild.COMMAND[0]) is None:
        pytest.skip(f"no C compiler ({_cbuild.COMMAND[0]})")
    return _cbuild.load(_cbuild.build(tmp_path_factory.mktemp("philox")))


@pytest.fixture(scope="session")
def compiled_words(compiled_philox):
    """``philox_raw_block`` of the compiled module."""
    return _cbuild.compiled(compiled_philox)


@pytest.fixture(params=["python", "c"])
def philox_words(request):
    """``philox_raw_block`` of the NumPy reference or of the compiled module."""
    if request.param == "python":
        return _kernels_py.philox_raw_block
    return request.getfixturevalue("compiled_words")

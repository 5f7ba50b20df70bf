import importlib.machinery
import importlib.util
import os
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

# Keep BLAS single-threaded: the suite's matrices are small enough that a
# thread pool only adds latency, and worker-process tests assume it.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from spde2d import _kernels_py, kernels
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
    """``src/spde2d/_philox.c`` compiled into a temporary directory and loaded
    as ``spde2d._philox``; skips where there is no C compiler."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]})")
    source = Path(__file__).parents[1] / "src" / "spde2d" / "_philox.c"
    target = (tmp_path_factory.mktemp("philox")
              / ("_philox" + sysconfig.get_config_var("EXT_SUFFIX")))
    subprocess.run([*cc, "-O3", "-fPIC", "-shared",
                    "-I", sysconfig.get_paths()["include"],
                    str(source), "-o", str(target)], check=True)
    loader = importlib.machinery.ExtensionFileLoader("spde2d._philox",
                                                     str(target))
    spec = importlib.util.spec_from_loader("spde2d._philox", loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


@pytest.fixture(params=["python", "c"])
def philox_words(request):
    """``philox_raw_block`` of the NumPy reference or of the compiled module."""
    if request.param == "python":
        return _kernels_py.philox_raw_block
    return kernels.compiled(request.getfixturevalue("compiled_philox"))

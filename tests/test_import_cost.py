"""scipy is imported only when an encoder is built or gelu first runs.

Each check runs in a fresh interpreter: the other test modules import scipy
themselves, so in-process ``sys.modules`` would hide a module-level import.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_fresh(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]


def test_operators_and_bench_targets_load_no_scipy():
    run_fresh("""
        import sys
        import numpy as np
        from attnops import AttnInputs, bench_targets, forward, random_inputs, variant_ids

        x = random_inputs(24, 4, seed=3)
        # non-negative Q and K keep tensor_row's row sums positive, so every id runs to the end
        inputs = AttnInputs(np.abs(x.q), np.abs(x.k), x.v)
        for vid in variant_ids():
            forward(vid, inputs)
        for target in bench_targets().values():
            target(inputs)
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded
    """)


def test_vit_init_loads_scipy_special():
    # a forward timed after vit_init (as `attnops demo` times it) must not pay for the import
    run_fresh("""
        import sys
        from attnops import vit_init
        vit_init(patch_dim=4, width=4, hidden=8, n_patches=3, depth=1)
        assert "scipy.special" in sys.modules
    """)


def test_gelu_as_first_call_matches_the_formula():
    run_fresh("""
        import math
        import sys
        import numpy as np
        from attnops import gelu

        rng = np.random.default_rng(5)
        x = rng.standard_normal(40000)
        inputs = [x, x.astype(np.float32), x + 1j * rng.standard_normal(x.size)]
        got = [gelu(a) for a in inputs]
        assert "scipy.special" in sys.modules
        from scipy.special import erf
        for a, g in zip(inputs, got):
            expected = 0.5 * a * (1 + erf(a / math.sqrt(2)))
            assert g.dtype == expected.dtype, (g.dtype, expected.dtype)
            assert g.tobytes() == expected.tobytes(), a.dtype
    """)

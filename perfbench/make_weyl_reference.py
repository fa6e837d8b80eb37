"""Write ``weyl_reference.json``: dense-SVD sigma_min at the top rung of sepavar.

The reference for ``weyl_abs_err`` on the sepavar_ladder workload.  For each
probe lambda of ``examples:sepavar`` it builds the band-2048 high-frequency
shell section of ``(2 + cos 2 pi x) * sin sqrt|xi|`` exactly as the spectral
ladder does (torus of oversampling*band samples, shell |xi| > band/2) and
takes the smallest value of ``scipy.linalg.svdvals(S - lambda I)``.  It runs
once (about half a minute) and its output is checked in::

    PYTHONPATH=src python3 perfbench/make_weyl_reference.py
"""

import json
import platform
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg as sla

from corona_pdo.pdo import frequency_section
from corona_pdo.spectral import TruncationSchedule, shell_indices
from corona_pdo.symbols import cos_profile, sqrt_wave, tensor_symbol

from workloads import SEPAVAR_AGAINST, SEPAVAR_SUPPORTING

BAND = 2048


def main() -> None:
    sched = TruncationSchedule()
    xg, xig = sched.grids(BAND)
    f = tensor_symbol(cos_profile(2.0, 1.0), sqrt_wave(), xg, xig)
    S = frequency_section(f, shell_indices(xig, BAND / 2))
    lambdas = SEPAVAR_SUPPORTING + SEPAVAR_AGAINST
    eye = np.eye(S.shape[0])
    sigma = [float(sla.svdvals(S - lam * eye)[-1]) for lam in lambdas]
    doc = {
        "band": BAND,
        "oversampling": sched.oversampling,
        "shell_dim": int(S.shape[0]),
        "sup_abs_f": float(f.sup_bound),
        "lambdas": list(lambdas),
        "sigma_min": sigma,
        "method": "scipy.linalg.svdvals of the dense shell section minus lambda*I; smallest value",
        "produced_with": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    out = Path(__file__).resolve().parent / "weyl_reference.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()

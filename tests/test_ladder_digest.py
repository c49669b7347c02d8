import numpy as np

import ladder_digest
import workloads

KEYS = {"engine", "plan_pairs", "plan_masses", "phi", "gamma_fwd", "gamma_bwd", "A+", "A-", "T",
        "ray_of", "param", "orphans", "coupling_pairs", "coupling_masses", "gamma_tol",
        "slack_floor", "support_residual", "rays", "tightening", "colgen"}


def test_digest_keys_and_repeat():
    # a small cloud takes arc generation and keeps Gamma as bit rows
    rng = np.random.default_rng(0)
    space = workloads._cloud(40, rng)
    mu0, mu1 = workloads._positive_marginals(space.n, rng)
    first, second = (ladder_digest.digest(space, mu0, mu1) for _ in range(2))
    assert set(first) == KEYS
    assert first["engine"] == "highs-colgen" and first["colgen"]["rounds"] >= 1
    assert ladder_digest.dumps(first) == ladder_digest.dumps(second)

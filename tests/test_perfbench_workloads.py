"""The benchmark's untraced run drives the engine through its public API.

`perfbench/workloads.py` calls the engine by name (`GenerationSession`,
`generate`, `SamplerSpec`, `sample_token`, `oracle_forward_swa`,
`cli.main`). An API change that breaks one of those calls would surface in
the benchmark only as failed operations, so this runs each workload as the
benchmark does, with `perfbench/workloads.py` and `clock.py` loaded as they
are: warm-up, a few requests timed by a probe without its timer signal,
then the golden gate, which must find nothing failed or mismatched.
"""

import numpy as np
import pytest

from conftest import ENGINE_MODULES as MODULES
from conftest import load_perfbench
from rollwin import weights

WORKLOADS = load_perfbench("workloads")
CLOCK = load_perfbench("clock")

#: Which requests to run: one decode request, the shortest (150-token)
#: prefill prompt and one whole verify sweep of three configs.
REQUESTS = {
    "decode_steady": lambda workload: workload.cycle()[:1],
    "prefill_long": lambda workload: [r for r in workload.pool if len(r.prompt) == 150],
    "verify_sweep": lambda workload: workload.cycle(),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_untraced_requests_pass_the_golden_gate(name):
    cls = WORKLOADS.WORKLOADS[name]
    seed = 5
    weight_set = weights.init_random(cls.make_config(MODULES), seed)
    cls.warm_up(MODULES, weight_set, seed)
    workload = cls(MODULES, np.random.default_rng([seed, 20231006]), seed)
    requests = REQUESTS[name](workload)
    probe = CLOCK.Probe(cls.probe_shapes, None)
    stats = WORKLOADS.Stats()
    outputs = [workload.run(MODULES, weight_set, request, probe, stats) for request in requests]
    workload.gate(MODULES, weight_set, outputs, stats)
    assert len(outputs) == {"decode_steady": 1, "prefill_long": 1, "verify_sweep": 3}[name]
    assert (stats.failed, stats.mismatched, stats.notes) == (0, 0, [])

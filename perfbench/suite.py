"""The determinism gate: one SHA-256 over the traces of 1000 random
scenarios.

`random_scenario` is a frozen copy of the generator in the test suite's
support module, kept here so that test edits cannot move the hash. A
speedup counts only if this hash is unchanged.
"""

import hashlib
import random

SUITE_SIZE = 1000


def random_scenario(es, seed):
    """A small random but valid scenario. Varied on purpose: every policy
    knob, every workload kind, and task counts from 1 to 4."""
    rng = random.Random(seed)
    n_tasks = rng.randint(1, 4)
    horizon = rng.randint(20, 200)
    importances = rng.sample(range(0, 50), n_tasks)
    priorities = rng.sample(range(1, 50), n_tasks)
    tasks = []
    workload = []
    for i in range(n_tasks):
        period = rng.randint(3, 40)
        wcet = rng.randint(1, max(1, period // 3))
        task_id = f"t{i}"
        line = f"l{i}"
        tasks.append(
            es.Task(
                id=task_id,
                wcet=wcet,
                period=period,
                importance=importances[i],
                line=line,
                envelope_n=rng.randint(1, 4),
                envelope_w=rng.randint(2, 30),
                priority=priorities[i],
            )
        )
        kind = rng.randrange(5)
        if kind == 0:
            workload.append((line, es.Periodic(rng.randint(0, 5), period)))
        elif kind == 1:
            workload.append(
                (line, es.Sporadic(rng.randint(1, period),
                                   rng.uniform(0.05, 0.6),
                                   rng.randint(0, 999)))
            )
        elif kind == 2:
            workload.append(
                (line, es.Burst(rng.randint(0, horizon - 1),
                                rng.randint(1, 6), rng.randint(0, 3)))
            )
        elif kind == 3:
            workload.append(
                (line, es.Storm(rng.randint(0, horizon - 1),
                                rng.randint(1, 2)))
            )
        else:
            count = rng.randint(0, 8)
            times = sorted(rng.sample(range(horizon), min(count, horizon)))
            workload.append((line, es.Explicit(tuple(times))))
    policy = es.Policy(
        assignment=rng.choice(["importance_monotonic", "explicit"]),
        fault_policy=rng.choice([es.FaultPolicy.PERMANENT,
                                 es.FaultPolicy.AUTO_RESUME]),
        ipl_optimization=rng.random() < 0.5,
        mask_until_bottom_half=rng.random() < 0.5,
        delta_th=rng.randrange(3),
    )
    return es.Scenario(
        task_set=es.TaskSet(tasks),
        policy=policy,
        workload=workload,
        horizon=horizon,
        seed=seed,
    )


def suite_hash(es, size=SUITE_SIZE) -> str:
    """SHA-256 over the trace CSVs of seeds 0 .. size-1, in order."""
    digest = hashlib.sha256()
    for seed in range(size):
        trace, _ = es.run_scenario(random_scenario(es, seed))
        digest.update(trace.to_csv_string().encode("utf-8"))
    return digest.hexdigest()

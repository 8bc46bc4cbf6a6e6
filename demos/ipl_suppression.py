"""Programming the interrupt priority level from the scheduler's state.

While a job runs, any interrupt whose task would not preempt it is pure
overhead: taking it now only delays the running job. The optimization
computes, at every schedule point, the least important line that would
actually preempt, and raises the controller's level just high enough to
suppress everything below it. A suppressed occurrence sets no pending
bit; the line's counter keeps it, and it is internalized later, stamped
with the moment its line became invisible.

Four tasks: tau_cur (runs first), tau_a (would preempt it), tau_b and
tau_c (would not). Watch who gets through while tau_cur runs.
"""

from envelopesim import Explicit, Policy, Scenario, Task, TaskSet, run_scenario

SHOW = ("RAISE", "SUPPRESS", "INTERNALIZE", "IPL_SET", "START",
        "PREEMPT", "COMPLETE")


def scenario(ipl_on):
    tasks = TaskSet([
        Task(id="tau_cur", wcet=4, period=50, importance=10, line="e_cur",
             envelope_n=3, envelope_w=5, priority=5),
        Task(id="tau_a", wcet=2, period=50, importance=8, line="e_a",
             envelope_n=3, envelope_w=5, priority=7),
        Task(id="tau_b", wcet=1, period=50, importance=6, line="e_b",
             envelope_n=3, envelope_w=5, priority=3),
        Task(id="tau_c", wcet=1, period=50, importance=4, line="e_c",
             envelope_n=3, envelope_w=5, priority=4),
    ])
    return Scenario(
        task_set=tasks,
        policy=Policy(assignment="explicit", ipl_optimization=ipl_on,
                      delta_th=0),
        workload=[("e_cur", Explicit((0,))), ("e_c", Explicit((1,))),
                  ("e_a", Explicit((2,))), ("e_b", Explicit((3,)))],
        horizon=12,
    )


for ipl_on in (True, False):
    label = "on" if ipl_on else "off"
    print(f"\n=== ipl_optimization {label} ===")
    trace, _ = run_scenario(scenario(ipl_on))
    for rec in trace.of_kind(*SHOW):
        where = rec.line or rec.task
        print(f"  t={rec.time:>2}  {rec.kind:<11} {where:<8} {rec.detail}")

print("\nWith the optimization on, only e_a interrupts tau_cur; e_b and")
print("e_c are only counted and are back-filled when the level drops.")
print("With it off, every raise takes a top half immediately.")

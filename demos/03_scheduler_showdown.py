"""Race the four schedulers on the default cross-bisection workload.

A trimmed version of the benchmark the CLI runs (5 seeds instead of 20, so
it finishes in a few seconds) printing one row per scheduler.

Run: python demos/03_scheduler_showdown.py
"""

from fatflow import ExperimentConfig, run_one
from fatflow.experiment import run_report
from fatflow.metrics import mean

cfg = ExperimentConfig(schedulers=["nonblocking", "hybrid", "hedera", "ecmp"],
                       seeds=[0, 1, 2, 3, 4])

print(f"k={cfg.k}, {cfg.capacity / 1e6:.0f} Mb/s links, {cfg.elephants} "
      f"elephants at {cfg.demand / 1e6:.1f} Mb/s each, {len(cfg.seeds)} seeds\n")
print(f"{'scheduler':<12} {'bisection':>10} {'mice loss':>10} "
      f"{'rtt dev':>9} {'controller':>11}")

for sched in cfg.schedulers:
    bis, loss, dev, ctl = [], [], [], []
    for seed in cfg.seeds:
        engine = run_one(cfg, sched, seed)
        r = run_report(engine)
        bis.append(r["bisection"]["mean_bps"])
        loss.append(r["mice"]["loss"])
        dev.append(r["mice"]["rtt_mean_deviation_s"])
        ctl.append(r["decisions"]["controller"])
    print(f"{sched:<12} {mean(bis) / 1e6:>8.1f} M {mean(loss):>10.3f} "
          f"{mean(dev) * 1e3:>7.1f}ms {mean(ctl):>11.1f}")

print("\nnonblocking is the physical ceiling; the hybrid splits flows 50/50 "
      "between ECMP hashing\nand a controller that picks the emptiest "
      "least-elephant path from polled switch stats.")

"""Work the benchmark runs in a fresh interpreter.

``setup``: time ``import caslab`` and the input load a command does before
its work (config parse, model build, table read), and print both as JSON.

``ce``: adapt an importance-sampling proposal by cross entropy, the one
estimation step caslab offers as a library call rather than a command, and
write it with ``write_model_file``.  Run in-process, the same function is
what the traced pass calls.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def setup_main(argv) -> dict:
    p = argparse.ArgumentParser(prog="child.py setup")
    p.add_argument("--config", required=True)
    p.add_argument("--model", choices=["correlated", "uncorrelated"], default=None)
    p.add_argument("--read-table", action="store_true")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import caslab
    import caslab.config as config
    t1 = time.perf_counter()
    cfg = config.load_config(args.config)
    if args.model is None:
        config.grid_from_config(cfg)
        config.rewards_from_config(cfg)
        config.pilot_from_config(cfg)
        config.intruder_from_config(cfg)
    else:
        enc = cfg["encounter"]
        factory = (caslab.default_correlated_model if args.model == "correlated"
                   else caslab.default_uncorrelated_model)
        factory(duration=float(enc["duration"]), dt=float(enc["dt"]))
    if args.read_table:
        caslab.read_table(cfg["paths"]["table_file"])
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "input_load_s": t2 - t1}


def ce_main(argv) -> dict:
    p = argparse.ArgumentParser(prog="child.py ce")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--iterations", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--elite", type=float, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    import caslab
    import caslab.evaluation

    nominal = caslab.default_uncorrelated_model()
    eq = caslab.Equipage(own="tcas", intruder="none")
    t0 = time.perf_counter()
    # Looked up at call time so that a traced pass sees its wrapper.
    proposal = caslab.evaluation.cross_entropy_adapt(
        nominal, nominal, eq, args.iterations, args.n, args.elite, args.seed
    )
    ce_s = time.perf_counter() - t0
    caslab.write_model_file(proposal, args.out)
    return {"ce_s": ce_s}


def main(argv) -> int:
    if not argv or argv[0] not in ("setup", "ce"):
        print("usage: child.py {setup|ce} ...", file=sys.stderr)
        return 2
    run = setup_main if argv[0] == "setup" else ce_main
    print(json.dumps(run(argv[1:])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

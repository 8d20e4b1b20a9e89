"""Times the set-up a user pays before every CLI run, in a fresh interpreter.

    python3 perfbench/setup_probe.py CONFIG {hp|plain}

Covers `import frachp.cli` and `parse_config`; with `hp` also
`build_system` (sympy lambdify for expression systems) and
`assemble_hp_fields`.  Prints {"setup_s": seconds}.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        text = fh.read()
    t0 = time.perf_counter()
    import frachp.cli as cli
    from frachp.core import FractionalParams
    cfg = cli.parse_config(text)
    if argv[2] == "hp":
        system = cli.build_system(cfg)
        cli.assemble_hp_fields(
            system, FractionalParams(cfg.alpha, cfg.beta, cfg.t_eval))
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

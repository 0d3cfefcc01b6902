"""Run one elasticdrop command in a fresh interpreter and report its cost.

    python3 perfbench/child.py --root <checkout> --config <run.json>
        --result <out.json> [--argv '<json list>'] [--spans <spans.json>]

The clock starts before ``elasticdrop.cli`` is imported: ``setup_s`` is the
import plus parsing the run config. Without ``--argv`` the child stops
there (a set-up probe). Otherwise it times ``elasticdrop.cli.main(argv)``
as ``wall_s``, with its user and system CPU time and minor page faults, and
reports the process's peak resident memory. With
``--spans`` the package's public functions are wrapped first and the spans
are written out when the command ends.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--argv", default=None)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--run-id", default="0")
    args = parser.parse_args()

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))
    import elasticdrop.cli as cli
    if src not in Path(cli.__file__).resolve().parents:
        print(f"elasticdrop was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 3
    cli.load_run_config(args.config)
    result = {"setup_s": time.perf_counter() - START}

    if args.argv is not None:
        argv = json.loads(args.argv)
        tracer = None
        if args.spans:
            import spans
            tracer = spans.Tracer(args.run_id)
            tracer.install("elasticdrop")
        start = time.perf_counter()
        before = resource.getrusage(resource.RUSAGE_SELF)
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call(spans.ROOT_SPAN, cli.main, argv)
        finally:
            wall = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_SELF)
            if tracer is not None:
                tracer.restore()
        result.update(wall_s=wall, exit_code=code, peak_rss_kb=after.ru_maxrss,
                      user_s=after.ru_utime - before.ru_utime,
                      sys_s=after.ru_stime - before.ru_stime,
                      minor_faults=after.ru_minflt - before.ru_minflt)
        if tracer is not None:
            Path(args.spans).write_text(json.dumps(tracer.records()))
            result["missing"] = tracer.missing

    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

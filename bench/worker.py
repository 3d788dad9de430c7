"""Workload process of the benchmark.

Usage: python3 worker.py SRC_DIR OUT_DIR TRACE [--setup-only]

Imports greenbvp.cli from SRC_DIR, makes OUT_DIR, and writes the line
"ready" to standard output; that ends set-up.  It then reads one JSON
command per line from standard input: a list of `greenbvp` arguments runs
cli.main in this process and answers with its exit code and wall time;
null ends the process after a final line with the peak resident memory.
With TRACE = 1 the answers also carry per-layer counts and self times, and
the spans are written to OUT_DIR/spans.csv at the end.
"""
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    src_dir, out_dir, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    setup_only = "--setup-only" in sys.argv[4:]
    proto = sys.stdout
    sys.stdout = sys.stderr      # keep the program's own prints off the protocol

    sys.path.insert(0, src_dir)
    from greenbvp import cli
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src_dir) + os.sep):
        print(f"greenbvp was imported from {cli.__file__}, not from {src_dir}",
              file=sys.stderr)
        return 2
    tracer = None
    if trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    os.makedirs(out_dir, exist_ok=True)

    def send(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    send("ready")
    if setup_only:
        return 0
    index = 0
    for line in sys.stdin:
        argv = json.loads(line)
        if argv is None:
            break
        if tracer:
            tracer.begin_op(index)
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:        # an escaped exception is a failed operation
            traceback.print_exc()
            rc = -1
        dt = time.perf_counter() - t0
        answer = {"rc": rc, "dt": dt}
        if tracer:
            answer["layers"] = tracer.end_op()
        send(answer)
        index += 1
    final = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        tracer.write_spans(os.path.join(out_dir, "spans.csv"))
        final["absent"] = tracer.absent
    send(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())

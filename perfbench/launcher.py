"""Runs the `cli-session` command lines from a small, fresh interpreter.

The kernel's peak-RSS figure for a spawned process starts from the peak of
the process that spawned it, since the child holds that image until it
execs.  The benchmark process grows as it keeps outputs to check, so its
children would report its peak, not their own.  This process stays small,
so the peak it reports over its children is theirs.

One JSON object per line on stdin and stdout:

    request  {"argv": [...], "timeout": seconds}
    reply    {"rc": int, "stdout": str, "stderr": str, "peak_kib": int, "cpu_s": float}

`cpu_s` is the user plus system CPU time of the command's process, read
as the growth of this process's reaped-children usage across the call.

Output bytes travel as Latin-1 text, which maps bytes to characters one to
one.  Commands run in this process's working directory and environment.
The loop ends when stdin closes.
"""

import json
import resource
import subprocess
import sys


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        try:
            proc = subprocess.run(request["argv"], capture_output=True,
                                  timeout=request["timeout"])
            rc, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            rc, out, err = -9, exc.stdout or b"", b"timed out\n"
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        reply = {"rc": rc, "stdout": out.decode("latin-1"), "stderr": err.decode("latin-1"),
                 "peak_kib": after.ru_maxrss, "cpu_s": cpu_s}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

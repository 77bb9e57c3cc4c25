#!/usr/bin/env python3
"""Server CPU per scrape against tenant stream length, with and without
`--state-dir`.

    python3 perfbench/growth.py

Run from the repository root. Builds `serverbench`, `icfl-server` and
`icfl-loadgen-http` (release, offline, into $CARGO_TARGET_DIR, default
`.bench_build`), makes quick-mode models and traces with
`serverbench --smoke --emit-trace`, then for each length N starts a fresh
server and streams two tenants (fig2 and causalbench) of N scrapes each in
64-scrape batches, closed loop. It prints a Markdown table of the server's
user+sys CPU time (from /proc/<pid>/stat) per scrape. Exits non-zero if
the server does not come up or the load generator fails.
"""

import os
import shutil
import subprocess
import sys
import time

# Scrapes per tenant, without and with --state-dir.
LENGTHS = (5000, 20000, 50000)
DURABLE_LENGTHS = (5000, 20000)
# How long the server may take to write its port file.
START_TIMEOUT_S = 30


def cpu_seconds(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def main():
    if sys.argv[1:]:
        sys.exit("usage: growth.py")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "-p", "icfl-server", "-p", "icfl-experiments", "--bin", "icfl-server",
                    "--bin", "icfl-loadgen-http", "--bin", "serverbench"],
                   cwd=root, env=env, check=True, stdout=sys.stderr)
    release = os.path.join(target, "release")
    work = os.path.join(target, "perfbench", f"growth-{os.getpid()}")
    os.makedirs(work)
    try:
        env["ICFL_RESULTS_DIR"] = work
        traces = os.path.join(work, "traces")
        subprocess.run([os.path.join(release, "serverbench"), "--smoke", "--quiet",
                        "--emit-trace", traces], cwd=root, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        print("| scrapes per tenant | --state-dir | server CPU per scrape (us) | wall (s) |")
        print("|---|---|---|---|")
        points = [(n, False) for n in LENGTHS] + [(n, True) for n in DURABLE_LENGTHS]
        for n, durable in points:
            port = os.path.join(work, "port")
            if os.path.exists(port):
                os.remove(port)
            cmd = [os.path.join(release, "icfl-server"), "--addr", "127.0.0.1:0",
                   "--models", os.path.join(work, "models"), "--port-file", port, "--quiet"]
            state = os.path.join(work, "state")
            if durable:
                shutil.rmtree(state, ignore_errors=True)
                cmd += ["--state-dir", state]
            server = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
            try:
                deadline = time.time() + START_TIMEOUT_S
                while not os.path.exists(port):
                    if server.poll() is not None or time.time() > deadline:
                        sys.exit("icfl-server did not come up")
                    time.sleep(0.01)
                with open(port) as f:
                    addr = f.read().strip()
                cpu0 = cpu_seconds(server.pid)
                t0 = time.time()
                subprocess.run([os.path.join(release, "icfl-loadgen-http"), "--addr", addr,
                                "--trace", os.path.join(traces, "fig2.jsonl"),
                                "--trace", os.path.join(traces, "causalbench.jsonl"),
                                "--total", str(2 * n), "--concurrency", "2",
                                "--bulk-size", "64", "--quiet"],
                               stdout=subprocess.DEVNULL, check=True)
                wall = time.time() - t0
                cpu = cpu_seconds(server.pid) - cpu0
            finally:
                server.kill()
                server.wait()
            print(f"| {n} | {'yes' if durable else 'no'} | {cpu * 1e6 / (2 * n):.1f} "
                  f"| {wall:.1f} |", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end tests for seer_serve's live telemetry plane (stdlib unittest).

Starts `seer_serve --listen 0 --linger` as a subprocess, scrapes all five
endpoints over real HTTP while the deterministic run executes, and checks
the contracts DESIGN.md §13 promises:

  * /metrics is valid Prometheus exposition whose final scrape is
    byte-identical to the --metrics-out file;
  * /status is JSON whose counters agree with the JSONL step records;
  * /healthz reports ok for a healthy run; /buildinfo matches --buildinfo;
  * /snapshot is 503 in deterministic mode (no model to capture);
  * the JSONL output is byte-identical with and without the listener;
  * SIGTERM during --linger shuts down with exit 0;
  * seer_inspect --connect renders a live report against the same server.

Needs the compiled binaries; run by hand with:

    SEER_SERVE_BIN=build/tools/seer_serve \
    SEER_INSPECT_BIN=build/tools/seer_inspect \
    python3 scripts/test_seer_serve_http.py -v
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import unittest
import urllib.error
import urllib.request

SERVE_BIN = os.environ.get("SEER_SERVE_BIN", "")
INSPECT_BIN = os.environ.get("SEER_INSPECT_BIN", "")
CHECK_PROM = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "check_prom_exposition.py")

LISTEN_RE = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")

CONFIG = {
    "generator": "spec",
    "name": "serve-http-test",
    "params": {
        "think_mean": 0,
        "regions": [{"name": "hot", "lines": 64, "zipf_skew": 0.9}],
        "types": [
            {"name": "lookup", "duration_mean": 300,
             "accesses": [{"region": "hot", "reads": 4}]},
            {"name": "update", "duration_mean": 500,
             "accesses": [{"region": "hot", "reads": 2, "writes": 2}]},
        ],
        "mix": [3, 1],
    },
    "open_loop": {
        "sweep": {"rates": [500, 2000], "knee_p99_ms": 2.0},
        "duration_s": 0.2, "queue_capacity": 64, "workers": 1,
        "cycles_per_us": 1.0,
    },
}


def http_get(port, path, timeout=5):
    """Returns (status, body bytes); HTTP error statuses are not raised."""
    url = f"http://127.0.0.1:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as res:
            return res.status, res.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


class ServeUnderTest:
    """seer_serve --listen 0 --linger, with the assigned port parsed from
    the stderr log (stderr goes to a file so the pipe can never fill)."""

    def __init__(self, tmpdir, *extra_args):
        self.out = os.path.join(tmpdir, "out.jsonl")
        self.metrics = os.path.join(tmpdir, "metrics.prom")
        self.errlog = os.path.join(tmpdir, "stderr.log")
        config = os.path.join(tmpdir, "serve.json")
        with open(config, "w", encoding="utf-8") as f:
            json.dump(CONFIG, f)
        self.errfile = open(self.errlog, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [SERVE_BIN, "--workload", config, "--deterministic",
             "--out", self.out, "--metrics-out", self.metrics,
             "--listen", "0", "--linger", *extra_args],
            stdout=subprocess.DEVNULL, stderr=self.errfile)
        self.port = self._await_port()

    def _await_port(self, timeout=10):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.errlog, encoding="utf-8") as f:
                m = LISTEN_RE.search(f.read())
            if m:
                return int(m.group(1))
            if self.proc.poll() is not None:
                raise AssertionError(
                    f"seer_serve exited early: {self.stderr()}")
            time.sleep(0.02)
        raise AssertionError(f"no listening line in: {self.stderr()}")

    def await_linger(self, timeout=30):
        """Polls /status until the run is over and the server lingers."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, body = http_get(self.port, "/status")
            if status == 200 and json.loads(body)["state"] == "linger":
                return json.loads(body)
            time.sleep(0.05)
        raise AssertionError("run never reached the linger state")

    def stop(self, sig=signal.SIGTERM, timeout=10):
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
        code = self.proc.wait(timeout=timeout)
        self.errfile.close()
        return code

    def stderr(self):
        with open(self.errlog, encoding="utf-8") as f:
            return f.read()

    def cleanup(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self.errfile.closed:
            self.errfile.close()


@unittest.skipUnless(os.access(SERVE_BIN, os.X_OK),
                     "SEER_SERVE_BIN not set or not executable")
class BuildinfoTest(unittest.TestCase):
    """--buildinfo prints build identity without starting a run."""

    def test_buildinfo_flag_prints_json(self):
        proc = subprocess.run([SERVE_BIN, "--buildinfo"], capture_output=True,
                              text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        info = json.loads(proc.stdout)
        self.assertEqual(info["tool"], "seer-serve")
        self.assertIn("commit", info)


@unittest.skipUnless(os.access(SERVE_BIN, os.X_OK),
                     "SEER_SERVE_BIN not set or not executable")
class TelemetryPlaneTest(unittest.TestCase):
    """One server instance scraped by every test, then torn down: the run
    itself is the expensive part, and the endpoints are independent."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.serve = ServeUnderTest(cls.tmp.name)
        cls.status_during = None
        # Scrape /status and /healthz while the run is still going (best
        # effort: a fast machine may finish first — the during-run fields
        # are asserted only when we caught it).
        status, body = http_get(cls.serve.port, "/status")
        if status == 200 and json.loads(body)["state"] == "running":
            cls.status_during = json.loads(body)
        cls.status_linger = cls.serve.await_linger()
        cls.metrics_scrape = http_get(cls.serve.port, "/metrics")
        cls.exit_code = None

    @classmethod
    def tearDownClass(cls):
        try:
            cls.serve.cleanup()
        finally:
            cls.tmp.cleanup()

    def test_status_counters_agree_with_the_jsonl(self):
        arrivals = accepted = rejected = 0
        with open(self.serve.out, encoding="utf-8") as f:
            for line in f:
                rec = json.loads(line)
                if rec.get("kind") == "step":
                    arrivals += rec["arrivals"]
                    accepted += rec["accepted"]
                    rejected += rec["rejected"]
        self.assertGreater(arrivals, 0)
        self.assertEqual(self.status_linger["arrivals"], arrivals)
        self.assertEqual(self.status_linger["accepted"], accepted)
        self.assertEqual(self.status_linger["rejected"], rejected)
        self.assertEqual(self.status_linger["queue_depth"], 0)

    def test_status_during_the_run_reports_running(self):
        if self.status_during is None:
            self.skipTest("run finished before the first scrape landed")
        self.assertEqual(self.status_during["state"], "running")

    def test_metrics_scrape_matches_the_metrics_out_file(self):
        status, body = self.metrics_scrape
        self.assertEqual(status, 200)
        with open(self.serve.metrics, "rb") as f:
            self.assertEqual(body, f.read())
        self.assertIn(b"seer_serve_arrivals", body)

    def test_metrics_scrape_is_valid_exposition(self):
        proc = subprocess.run(
            [sys.executable, CHECK_PROM], input=self.metrics_scrape[1],
            capture_output=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr.decode())

    def test_healthz_is_ok_while_lingering(self):
        status, body = http_get(self.serve.port, "/healthz")
        self.assertEqual(status, 200)
        health = json.loads(body)
        self.assertTrue(health["ok"])
        self.assertEqual(health["state"], "linger")

    def test_snapshot_is_503_in_deterministic_mode(self):
        status, body = http_get(self.serve.port, "/snapshot")
        self.assertEqual(status, 503)
        self.assertIn("no model snapshot", json.loads(body)["error"])

    def test_buildinfo_endpoint_matches_the_flag(self):
        status, body = http_get(self.serve.port, "/buildinfo")
        self.assertEqual(status, 200)
        proc = subprocess.run([SERVE_BIN, "--buildinfo"], capture_output=True,
                              check=False)
        self.assertEqual(body, proc.stdout)

    def test_unknown_path_is_404(self):
        status, _ = http_get(self.serve.port, "/nope")
        self.assertEqual(status, 404)

    @unittest.skipUnless(os.access(INSPECT_BIN, os.X_OK),
                         "SEER_INSPECT_BIN not set or not executable")
    def test_seer_inspect_connect_renders_a_live_report(self):
        proc = subprocess.run(
            [INSPECT_BIN, "--connect",
             f"http://127.0.0.1:{self.serve.port}"],
            capture_output=True, text=True, check=False, timeout=30)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("state", proc.stdout)
        self.assertIn("health", proc.stdout)

    # zz-prefix: unittest runs methods alphabetically and this one kills
    # the shared server, so it must come last.
    def test_zz_sigterm_during_linger_exits_cleanly(self):
        self.assertEqual(self.serve.stop(signal.SIGTERM), 0)


@unittest.skipUnless(os.access(SERVE_BIN, os.X_OK),
                     "SEER_SERVE_BIN not set or not executable")
class ByteIdentityTest(unittest.TestCase):
    """The listener plus concurrent scrapes must not perturb the
    deterministic JSONL — the §12 reproducibility contract extended."""

    def test_jsonl_identical_with_and_without_listener(self):
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "serve.json")
            with open(config, "w", encoding="utf-8") as f:
                json.dump(CONFIG, f)
            plain = os.path.join(tmp, "plain.jsonl")
            proc = subprocess.run(
                [SERVE_BIN, "--workload", config, "--deterministic",
                 "--seed", "7", "--out", plain],
                capture_output=True, text=True, check=False)
            self.assertEqual(proc.returncode, 0, proc.stderr)

            serve = ServeUnderTest(tmp, "--seed", "7")
            try:
                # Hammer the endpoints while the run executes.
                for _ in range(50):
                    http_get(serve.port, "/metrics")
                    http_get(serve.port, "/status")
                    if serve.proc.poll() is not None:
                        break
                serve.await_linger()
                self.assertEqual(serve.stop(), 0)
                with open(plain, "rb") as f1, open(serve.out, "rb") as f2:
                    self.assertEqual(f1.read(), f2.read())
            finally:
                serve.cleanup()


if __name__ == "__main__":
    unittest.main()

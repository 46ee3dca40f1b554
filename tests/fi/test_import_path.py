"""Import discipline of the injection path.

``fi run`` and every pool worker must load only the code injection runs:
the simulator, the campaign engine, the cores and the light part of
``repro.obs``. numpy, the MATE search, the static MATE checker, the web
console (asyncio) and the process-pool machinery are loaded on first use
only. Recording a golden trace and reading its cycle vectors needs no
numpy either. Each check runs in a fresh interpreter, because this test
process has long since imported everything.
"""

import json
import os
import subprocess
import sys
import textwrap

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
ENV = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))

#: Modules no campaign process or pool worker may load.
FORBIDDEN = (
    "numpy",
    "asyncio",
    "repro.core.search",
    "repro.core.replay",
    "repro.lint.static_mate",
    "repro.obs.http",
)
#: Loaded by the pool path only; inline runs must not import it.
POOL_ONLY = "concurrent.futures.process"


def _loaded_after(body: str, watch, cwd) -> list[str]:
    """Run ``body`` in a fresh interpreter; which of ``watch`` it loaded."""
    script = textwrap.dedent(body) + textwrap.dedent(
        f"""
        import json, sys
        print(json.dumps([m for m in {list(watch)!r} if m in sys.modules]))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=ENV,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli_run(*args: str) -> str:
    argv = ["run", *args, "--limit", "0", "--journal", "j.jsonl", "--no-store"]
    return f"""
        from repro.fi.__main__ import main
        assert main({argv!r}) == 0
    """


def test_inline_run_loads_only_the_injection_path(tmp_path):
    body = _cli_run("--target", "avr-fib", "--sampled", "3", "--workers", "0")
    assert _loaded_after(body, (*FORBIDDEN, POOL_ONLY), tmp_path) == []


def test_pool_worker_loads_only_the_injection_path(tmp_path):
    body = """
        from repro.fi.runner import TargetSpec, _worker_init
        spec = TargetSpec("repro.fi.targets:named_target", {"name": "avr-fib"})
        _worker_init(spec.to_dict(), 50_000)
    """
    assert _loaded_after(body, FORBIDDEN, tmp_path) == []


def test_layered_run_skips_the_mate_search_and_console(tmp_path):
    # numpy stays allowed here: the def-use layer (repro.prune) uses it.
    body = _cli_run("--target", "msp430-fib", "--sampled", "20", "--defuse",
                    "--static", "--workers", "0")
    watch = ("repro.core.search", "asyncio")
    assert _loaded_after(body, watch, tmp_path) == []


def test_public_names_resolve_lazily(tmp_path):
    body = """
        import sys

        import repro.core
        import repro.obs

        assert "repro.core.search" not in sys.modules
        assert "find_mates" in dir(repro.core)
        from repro.core import FaultSpace, find_mates, replay_mates
        from repro.core import compute_fault_cone, verify_mate_on_trace
        from repro.obs import ConsoleProvider, HealthMonitor, write_trace
        from repro.lint import StaticMateChecker, run_lint
        from repro.eval.context import get_simulator, synthesize_avr
        assert repro.core.search.find_mates is find_mates
        assert repro.obs.http.ConsoleProvider is ConsoleProvider
        try:
            repro.core.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("unknown names must raise AttributeError")
    """
    loaded = _loaded_after(body, ("repro.core.search", "repro.obs.http"), tmp_path)
    assert loaded == ["repro.core.search", "repro.obs.http"]


def test_recording_a_trace_needs_no_numpy(tmp_path):
    body = """
        from repro.fi.targets import named_target
        from repro.netlist.netlist import CONST1

        target = named_target("avr-fib")
        result = target.simulator.run(target.make_testbench(), max_cycles=200)
        trace = result.trace
        assert trace.vector(CONST1) == (1 << result.cycles) - 1
        assert trace.value(0, CONST1) == 1
    """
    assert _loaded_after(body, ("numpy",), tmp_path) == []

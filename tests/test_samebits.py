import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_quick_same_bits_of_the_tree_against_itself_are_equal():
    """tools/samebits.py --quick, this tree against itself, makes every run
    of its list in both workers and reports one line, "equal", within 10 s."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "samebits.py"), "--quick",
                           "--against", ROOT], capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - t0 < 10.0
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("equal: 45 runs, 89 arrays")


def test_the_verdict_names_the_first_run_that_differs():
    """Two reports that part at a run's second array, or at a run that failed
    in one tree, read "differ" with that run and array."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("samebits", os.path.join(ROOT, "tools",
                                                                           "samebits.py"))
    samebits = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(samebits)
    mine = [["a.0", [["u", "1"]]], ["b.0", [["u", "2"], ["psi_hxy", "3"]]]]
    assert samebits.verdict(mine, mine) == "equal: 2 runs, 3 arrays"
    other = [mine[0], ["b.0", [["u", "2"], ["psi_hxy", "4"]]]]
    assert samebits.verdict(mine, other) == "differ: first at b.0 (psi_hxy)"
    failed = [["a.0", [["error", "ValueError: bad"]]], mine[1]]
    assert samebits.verdict(mine, failed) == "differ: first at a.0 (u)"

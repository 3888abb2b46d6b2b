"""The benchmark's layer tracer (perfbench/tracing.py) still finds every
hook it patches in the toolkit, and puts each one back on uninstall.

A refactor that removes a traced function, method or module alias (say
`rearrange._si` or `NumericConjugate._inverse_density`) fails here, before
a traced benchmark run does.  Nothing under perfbench/ is changed."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import orlicz_kit

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces(tracing):
    """Every namespace the tracer may patch: the toolkit's modules and the
    classes whose methods it wraps."""
    modules = [m for n, m in sys.modules.items() if n.startswith("orlicz_kit") and m is not None]
    return [*modules, *(cls for cls, _, _ in tracing.METHODS)]


def snapshot(owners):
    return [(owner, dict(vars(owner))) for owner in owners]


def test_install_then_uninstall_restores_every_hook():
    tracing = load_tracing()
    assert orlicz_kit.rearrange is tracing.rearrange  # it traces the package under test
    before = snapshot(namespaces(tracing))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {(owner, attr) for owner, attr, _ in tracer._saved}
        assert (tracing.rearrange, "_si") in patched
        assert (tracing.young.NumericConjugate, "_inverse_density") in patched
        for owner, attr, original in tracer._saved:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, names in before:
        now = vars(owner)
        assert now.keys() == names.keys(), owner
        changed = [key for key, value in names.items() if now[key] is not value]
        assert not changed, (owner, changed)


def test_the_quad_alias_imports_scipy_integrate_on_first_use():
    # importing scipy.integrate takes about half of the command line's import
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, orlicz_kit.cli\n"
        "from orlicz_kit import rearrange\n"
        "assert 'scipy.integrate' not in sys.modules\n"
        "import scipy.integrate\n"
        "assert rearrange._si.quad is scipy.integrate.quad\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr

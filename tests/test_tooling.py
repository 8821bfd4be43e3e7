import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_trace_patch_table_resolves():
    # Tracer.install raises on a name the program no longer defines; read
    # its patch table here, without installing, so that a rename or
    # deletion fails in the test suite rather than in a traced bench run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in tracing._PATCHES
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []

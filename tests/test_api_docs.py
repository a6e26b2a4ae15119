"""``docs/api.md`` is generated (``make docs``); CI diffs it against the
generator's output, and so does tier-1 — a docstring or ``__all__`` edit
that forgets to regenerate fails here, not in a job nobody ran."""

import contextlib
import io
import os
import runpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_api_reference_is_current():
    generator = runpy.run_path(os.path.join(ROOT, "scripts", "generate_api_docs.py"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        generator["main"]()
    with open(os.path.join(ROOT, "docs", "api.md")) as fh:
        checked_in = fh.read()
    assert out.getvalue() == checked_in, (
        "docs/api.md is stale: run `PYTHONPATH=src make docs` "
        "(python scripts/generate_api_docs.py > docs/api.md)"
    )

"""Documentation hygiene: links resolve, README indexes every docs page,
and every dotted ``repro.…`` name, repo path and test file the docs
cite still exists.

CI runs this as the docs job; it keeps the markdown link graph honest
as files move.
"""

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Markdown inline links: [text](target) with an optional #fragment.
_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(#[^)]*)?\)")

_DOC_FILES = sorted(
    [REPO / "README.md", *(REPO / "docs").glob("*.md")],
    key=lambda p: str(p),
)


#: Dotted Python names such as ``repro.sim.events.EventBus``.
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")

_NAMING_DOCS = sorted(
    [REPO / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    + list((REPO / "docs").glob("*.md")),
    key=lambda p: str(p),
)


def _resolves(dotted):
    """True if ``dotted`` is a module, or a module's attribute chain."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def _links(path):
    found = []
    for match in _LINK.finditer(path.read_text()):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        found.append(target)
    return found


@pytest.mark.parametrize("doc", _DOC_FILES, ids=lambda p: p.name)
def test_intra_repo_links_resolve(doc):
    broken = []
    for target in _links(doc):
        resolved = (doc.parent / target).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{doc.relative_to(REPO)} has broken links: {broken}"


def test_readme_links_every_docs_page():
    readme_targets = {
        (REPO / target).resolve() for target in _links(REPO / "README.md")
    }
    missing = [
        page.name
        for page in sorted((REPO / "docs").glob("*.md"))
        if page.resolve() not in readme_targets
    ]
    assert not missing, f"docs pages not linked from README.md: {missing}"


def test_docs_exist():
    for name in ("experiments.md", "architecture.md"):
        assert (REPO / "docs" / name).exists()


@pytest.mark.parametrize("doc", _NAMING_DOCS, ids=lambda p: p.name)
def test_dotted_names_resolve(doc):
    names = set(_DOTTED.findall(doc.read_text()))
    unresolved = sorted(name for name in names if not _resolves(name))
    assert not unresolved, f"{doc.relative_to(REPO)} names missing code: {unresolved}"


#: Fenced code blocks: their commands name directories a run creates.
_FENCED = re.compile(r"^```.*?^```", re.S | re.M)
#: Inline code spans.
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
#: A repo path inside a code span (``benchmarks/test_x.py::test_y``).
_REPO_PATH = re.compile(
    r"(?<![\w./-])((?:benchmarks|tests|src|docs|perfbench|examples)/[^\s:#\[]*)"
)
#: A bare test-file name inside a code span (``test_docs.py``).
_TEST_FILE = re.compile(r"(?<![\w./-])(test_\w+\.py)\b")
#: Placeholders (``BENCH_<sha>.json``, ``$DIR``) that name no one file.
_PLACEHOLDER = re.compile(r"[<>{}$]")


def _test_file_names():
    return {
        path.name
        for top in ("tests", "benchmarks", "perfbench", "examples")
        for path in (REPO / top).rglob("test_*.py")
    }


@pytest.mark.parametrize("doc", _NAMING_DOCS, ids=lambda p: p.name)
def test_cited_paths_exist(doc):
    spans = _CODE_SPAN.findall(_FENCED.sub("", doc.read_text()))
    test_files = _test_file_names()
    missing = set()
    for span in spans:
        for path in _REPO_PATH.findall(span):
            path = path.rstrip(".,;)")
            if _PLACEHOLDER.search(path):
                continue
            if not any(REPO.glob(path)):
                missing.add(path)
        missing.update(
            name for name in _TEST_FILE.findall(span) if name not in test_files
        )
    assert not missing, (
        f"{doc.relative_to(REPO)} cites missing files: {sorted(missing)}"
    )

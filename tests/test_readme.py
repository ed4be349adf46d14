"""The README's examples run as written."""

import re
import shlex
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from bermoments.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(title: str) -> str:
    """The README text from the heading `## title` to the next `## ` heading."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def fenced(text: str, language: str = "") -> list:
    """The bodies of the fenced code blocks of `text` opened with ```language."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", text, flags=re.M | re.S)
    return [body for opener, body in blocks if opener == language]


def test_library_quick_start_prints_its_comments():
    (code,) = fenced(section("Library quick start"), "python")
    out = StringIO()
    with redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().split() == ["1/18", "0", "True"]


def test_every_command_line_exits_zero(tmp_path, monkeypatch, capsys):
    text = section("Command line")
    (commands,), (spectrum_file, chern_file) = fenced(text, "sh"), fenced(text)
    assert spectrum_file.startswith("n 1\nalpha") and chern_file.startswith("n 2\npartition")
    (tmp_path / "cusp.spectrum").write_text(spectrum_file)
    (tmp_path / "X.chern").write_text(chern_file)
    monkeypatch.chdir(tmp_path)
    lines = [line for line in commands.splitlines() if line.startswith("bermoments ")]
    assert len(lines) == 15
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0 and err == "" and out, line


def test_caps_are_their_constants():
    # each cap the README gives as `module.MAX_NAME` = 256 (or = 2^16, or
    # = 2^14 = 16384) is that constant, and every cap of the CLI is given
    import bermoments
    from bermoments import cli, spectra

    modules = {"bermoments": bermoments, "cli": cli, "spectra": spectra}
    pattern = r"`(\w+)\.(MAX_\w+)`(?: \(also `cli\.\w+`\))? = (\d+)(?:\^(\d+))?((?: = \d+)*)"
    given = re.findall(pattern, README)
    assert len(given) >= 10
    for module, name, base, exponent, equal in given:
        value = int(base) ** int(exponent or 1)
        assert value == getattr(modules[module], name), name
        assert all(int(also) == value for also in re.findall(r"\d+", equal)), name
    caps = {name for name in vars(cli) if name.startswith("MAX_")}
    assert caps <= set(re.findall(r"`cli\.(MAX_\w+)`", README))


def test_named_references_resolve():
    # every `module.name` the README names, bare or called, is an attribute
    # of that bermoments module, so a renamed or moved name fails here
    import importlib
    import pkgutil

    import bermoments

    modules = {"bermoments": bermoments}
    for info in pkgutil.iter_modules(bermoments.__path__):
        modules[info.name] = importlib.import_module(f"bermoments.{info.name}")
    named = {ref for ref in re.findall(r"`(\w+)\.(\w+)[`(]", README) if ref[0] in modules}
    assert len(named) >= 24
    for module, name in sorted(named):
        assert hasattr(modules[module], name), f"{module}.{name}"

"""The README's commands stay in step with the CLI: every documented
``linetrp`` invocation parses (nothing is executed), the documented CSV
headers are the ones the CLI writes, and every repository path it names
exists."""

import re
import shlex
from pathlib import Path

from linetrp.cli import build_parser, main
from linetrp.online import STRATEGY_NAMES

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
SUBCOMMANDS = {"generate", "oracle", "simulate", "adversary", "sweep"}


def _readme_commands():
    """Arguments of every ``linetrp ...`` line in the README's code blocks.
    Inside a ``for NAME in WORDS; do ... done`` loop, a line is taken once
    per word, with ``$NAME`` replaced by it."""
    commands = []
    for block in re.findall(r"^```[a-z]*\n(.*?)^```", README, re.M | re.S):
        loop = None
        for line in block.splitlines():
            line = line.strip()
            head = re.fullmatch(r"for (\w+) in (.+); do", line)
            if head:
                loop = head.group(1), head.group(2).split()
            elif line == "done":
                loop = None
            elif line.startswith("linetrp "):
                argv = shlex.split(line, comments=True)[1:]
                if loop is None:
                    commands.append(argv)
                else:
                    name, words = loop
                    commands += [[a.replace(f"${name}", w) for a in argv] for w in words]
    return commands


def test_readme_commands_parse(capsys):
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == SUBCOMMANDS
    parser = build_parser()
    rejected = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append((argv, capsys.readouterr().err.strip()))
    assert rejected == []


def test_readme_loop_covers_every_adversary_strategy():
    strategies = {argv[2] for argv in _readme_commands() if argv[:2] == ["adversary", "--strategy"]}
    assert strategies == set(STRATEGY_NAMES)


def test_readme_csv_headers_match_the_cli(tmp_path, capsys):
    documented = dict(
        re.findall(r"`linetrp (\w+)[^`]*` writes one row per \w+:\n\n```csv\n(.*)\n```", README)
    )
    assert main(["sweep", "--trials", "0"]) == 0
    sweep_header = capsys.readouterr().out.splitlines()[0]
    instance = tmp_path / "inst.txt"
    instance.write_text("LINE 0 1\nREQ 1 1 0\n")
    report = tmp_path / "report.csv"
    assert main(["simulate", str(instance), "--out", str(report)]) == 0
    simulate_header = report.read_text().splitlines()[0]
    assert documented == {"sweep": sweep_header, "simulate": simulate_header}


def test_readme_names_only_existing_paths():
    paths = set(re.findall(r"\b(?:scripts|tests)/[\w./-]*\w", README))
    assert paths, "the README names no repository path"
    assert sorted(p for p in paths if not (ROOT / p).exists()) == []

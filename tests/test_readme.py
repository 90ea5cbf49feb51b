import hashlib
import pathlib

from bethestates.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# sha256 of the stdout of each command of README's CLI block, frozen from the
# output of commit 6f75197, before the bosonic sums shared one k-loop
CLI_STDOUT_SHA256 = {
    "ts --p0 16/7":
        "14ac73ac5f2ccbf00ce5b96d1a512601343b320c250b77298de22a83a3c03b6a",
    "theta --p0 16/7 --json":
        "6e96e589f48daa89b790d2294e62c15d2445978b401a2c418933c2f2887b0ac8",
    "count --p0 6 --chain 3x5 --l 5":
        "be7f3ea246602c2914e15f19cd1eba0bee25eca4d3ca3c6e59497a290e89ff18",
    "enumerate --p0 6 --chain 3x5 --l 5 --diagrams":
        "5b8a2f972f6854151b392e0ccd6c238636bb38088bade56f6631c6fcd0286af8",
    "identity --p0 7/3 --cutoff 30":
        "61a19af8aa59dd2e5607422bb49587b7c6dfed496efa55955d9008431e8b7f48",
    "completeness --p0 6 --chain 3x5":
        "8b9d7584649e4817a7e04b37180a5ad45b3e291e854d5c7b36f139691c590aa0",
    "bijection --p0 6 --chain 2x5":
        "fcc69624497ee4a8469ee0e7188bdf289575991a6cd402676076609dd751b6c8",
}


def _block(heading: str, fence: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(heading, 1)[1].split(fence, 1)[1].split("```", 1)[0]


def test_readme_cli_block(capsys):
    # every command of the CLI block exits 0 with its frozen stdout
    commands = [line.split() for line in _block("## CLI", "```\n").splitlines() if line]
    assert all(argv[0] == "bethestates" for argv in commands)
    assert [" ".join(argv[1:]) for argv in commands] == list(CLI_STDOUT_SHA256)
    for argv in commands:
        rc = main(argv[1:])
        out = capsys.readouterr().out
        assert rc == 0, argv
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
            CLI_STDOUT_SHA256[" ".join(argv[1:])], argv


def test_readme_library_snippet(capsys):
    # the Library block runs as printed and prints the values in its comments
    block = _block("## Library", "```python\n")
    expected = [line.split("#", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert expected == ["(2, 3, 2)", "101", "True", "True"]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected

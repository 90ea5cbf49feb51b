import pathlib

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet(capsys):
    # the Library block runs as printed and prints the values in its comments
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("#", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert expected == ["(2, 3, 2)", "101", "True", "True"]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected

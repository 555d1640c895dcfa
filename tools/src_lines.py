"""Line counts of src/varikon, per module and in total, printed as JSON.

Usage, from any directory (stdlib only, no options):

    python3 tools/src_lines.py

It exits 0, or 1 when its reader closes the pipe early.

Each line of a module is read with tokenize and counted as
- code: it holds part of a token other than a comment or a docstring;
- doc: it is not code, and it lies in a docstring or holds a comment
  (a docstring is any string that is a statement by itself);
- blank: it holds only whitespace.
A blank line inside a docstring counts as doc and as blank, so the three
counts can add up to more than "lines", the module's line count.
"""

import io
import json
import os
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "varikon"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
# a string token that follows one of these starts its statement
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, None}


def count(text: str) -> dict:
    """{"code", "doc", "blank", "lines"} line counts of one module's text."""
    lines = text.splitlines()
    code, doc = set(), set()
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    before = None  # the last token type other than a comment or NL
    for tok, after in zip(tokens, tokens[1:]):
        spanned = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT or (
                tok.type == tokenize.STRING and before in STATEMENT_START
                and after.type == tokenize.NEWLINE):
            doc.update(spanned)
        elif tok.type not in NOT_CODE:
            code.update(spanned)
        if tok.type not in (tokenize.COMMENT, tokenize.NL):
            before = tok.type
    return {"code": len(code), "doc": len(doc - code),
            "blank": sum(not line.strip() for line in lines),
            "lines": len(lines)}


def main() -> int:
    modules = {path.name: count(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    total = {key: sum(m[key] for m in modules.values())
             for key in ("code", "doc", "blank", "lines")}
    try:
        json.dump({"modules": modules, "total": total}, sys.stdout, indent=2)
        sys.stdout.write("\n")
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:  # the reader left: `src_lines.py | head -3`
        # as varikon's cli.main: point stdout at devnull so the final
        # flush cannot raise again, and exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

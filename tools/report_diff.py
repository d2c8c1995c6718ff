"""Compare two `betheforge verify --out` reports, ignoring run times.

    python3 tools/report_diff.py OLD.json NEW.json

Cases are matched by (id, backend).  Every field of every case but
`runtime`, and every top-level count, must be equal: residuals compare as
the exact floats JSON stores.  Prints each difference and a summary line;
exits 0 when the reports agree and 1 otherwise.
"""

from __future__ import annotations

import json
import sys

IGNORED = ("runtime",)


def _cases(doc):
    return {(c["id"], c["backend"]): {k: v for k, v in c.items()
                                      if k not in IGNORED}
            for c in doc["cases"]}


def differences(old, new):
    """The differences between two report dicts, one line each."""
    out = [f"{key}: {old.get(key)!r} -> {new.get(key)!r}"
           for key in sorted((set(old) | set(new)) - {"cases"})
           if old.get(key) != new.get(key)]
    a, b = _cases(old), _cases(new)
    for key in sorted(set(a) | set(b)):
        if key not in b:
            out.append(f"{key[0]} [{key[1]}]: only in the first report")
        elif key not in a:
            out.append(f"{key[0]} [{key[1]}]: only in the second report")
        else:
            for field in sorted(set(a[key]) | set(b[key])):
                if a[key].get(field) != b[key].get(field):
                    out.append(f"{key[0]} [{key[1]}] {field}: "
                               f"{a[key].get(field)!r} -> "
                               f"{b[key].get(field)!r}")
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    diff = differences(*docs)
    for line in diff:
        print(line)
    print(f"{len(_cases(docs[0]))} and {len(_cases(docs[1]))} cases, "
          f"{len(diff)} differences (runtime ignored)")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())

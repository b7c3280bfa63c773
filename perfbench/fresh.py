"""Set-up from a fresh interpreter: import fskit, read and classify the
given presentation files, then print "ready".

    python3 perfbench/fresh.py perfbench/presentations/j3.fsp ...
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fskit.presentation import classify, parse_presentation  # noqa: E402

for arg in sys.argv[1:]:
    classify(parse_presentation(Path(arg).read_text(encoding="utf-8"), arg))
print("ready", flush=True)

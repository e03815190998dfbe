"""Fail unless every replay in a perfbench output ran a specialised kernel.

Usage: ``python3 .github/scripts/check_dispatch.py OUTPUT``, where
``OUTPUT`` holds what ``perfbench/run.py`` printed.  Its one ``# meta``
line maps each replay to a ``dispatch`` reason; any reason other than
``specialised:*`` is a fallback to the reference loop.
"""

import json
import sys

meta = [line for line in open(sys.argv[1]) if line.startswith("# meta ")]
assert len(meta) == 1, f"expected one '# meta' line, got {len(meta)}"
dispatch = json.loads(meta[0][len("# meta "):])["dispatch"]
fallbacks = {
    label: reason for label, reason in dispatch.items()
    if not reason.startswith("specialised:")
}
assert dispatch and not fallbacks, f"not on a specialised kernel: {fallbacks}"
print("dispatch:", dispatch)

"""Server child of the ``wire_closed`` workload.

``python _server_main.py <xml file>`` opens the file, serves it with
two workers on an ephemeral port and prints ``{"address": [host,
port]}``.  The parent then drives it over stdin: ``rusage`` prints this
process's CPU seconds and peak RSS; end of input shuts down.
"""

from __future__ import annotations

import json
import resource
import sys

from common import add_src_to_path, peak_rss_kb


def main(xml_path: str) -> None:
    add_src_to_path()
    import repro

    with repro.connect(xml_path) as db:
        server = repro.listen(db, workers=2, port=0)
        print(json.dumps({"address": list(server.address)}), flush=True)
        for line in sys.stdin:
            if line.strip() == "rusage":
                usage = resource.getrusage(resource.RUSAGE_SELF)
                print(json.dumps({
                    "cpu_s": usage.ru_utime + usage.ru_stime,
                    "maxrss_kb": peak_rss_kb()}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1])

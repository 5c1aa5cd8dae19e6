"""Serve `jsspt.rule_server` with spans around its parse, decide and load calls.

    python3 perfbench/policy_launcher.py SPANS_JSON <rule_server arguments>

Runs `jsspt.rule_server.main` unchanged; when the channel closes it writes
the span aggregates (rule_server.parse_message, rule_server.decide,
rule_server.load_instance) to SPANS_JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import common


def main(argv: list[str]) -> int:
    common.use_checkout_sources()
    common.checked_import()
    from jsspt import rule_server

    from spans import Tracer, summary

    tracer = Tracer()
    tracer.wrap(rule_server, "parse_message", "rule_server.parse_message")
    tracer.wrap(rule_server, "select_operation", "rule_server.decide")
    tracer.wrap(rule_server, "select_agv", "rule_server.decide")
    tracer.wrap(rule_server, "load_instance", "rule_server.load_instance")
    tracer.install()
    code = rule_server.main(argv[1:])
    Path(argv[0]).write_text(json.dumps(summary(tracer.aggregate())) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

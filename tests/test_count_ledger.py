"""The exact-count ledger (``count_ledger.py``) against its golden file."""

import json

from count_ledger import LEDGER, ledger


def test_every_count_equals_the_ledger():
    recorded = json.loads(LEDGER.read_text())
    assert json.loads(json.dumps(ledger())) == recorded

"""Fail on any Tier-1 test failure or error besides acceptance criterion 8.

Criterion 8 fails on purpose (see the README), so the test step reports a
failure on every run; this check reads the step's JUnit report and exits 1
when another test failed or errored, or when there is no report (the parse
raises), and 0 otherwise.

Usage: python .github/check_tier1_report.py [report, default tier1.xml]
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED = "test_criterion_8_certified_constants_in_band"

report = sys.argv[1] if len(sys.argv) > 1 else "tier1.xml"
bad = [f"{case.get('classname')}::{case.get('name')}"
       for case in ET.parse(report).iter("testcase")
       if case.get("name") != EXPECTED
       and (case.find("failure") is not None
            or case.find("error") is not None)]
print("\n".join(bad) or f"no failure besides {EXPECTED}")
sys.exit(1 if bad else 0)

"""Column schema and label taxonomy for CICIoT2023-style flow CSVs.

The published dataset has 46 numeric flow features plus one label column.
The raw-label -> attack-family table ships as ``family_map.json`` next to
this module so it can be audited or edited without touching code.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

LABEL_COLUMN = "label"
BENIGN_LABEL = "BenignTraffic"

BINARY_CLASSES = ("Benign", "Attack")

# The 46 flow features, in the dataset's published column order. "Magnitue"
# is the dataset's own spelling.
FEATURE_COLUMNS = (
    "flow_duration",
    "Header_Length",
    "Protocol Type",
    "Duration",
    "Rate",
    "Srate",
    "Drate",
    "fin_flag_number",
    "syn_flag_number",
    "rst_flag_number",
    "psh_flag_number",
    "ack_flag_number",
    "ece_flag_number",
    "cwr_flag_number",
    "ack_count",
    "syn_count",
    "fin_count",
    "urg_count",
    "rst_count",
    "HTTP",
    "HTTPS",
    "DNS",
    "Telnet",
    "SMTP",
    "SSH",
    "IRC",
    "TCP",
    "UDP",
    "DHCP",
    "ARP",
    "ICMP",
    "IPv",
    "LLC",
    "Tot sum",
    "Min",
    "Max",
    "AVG",
    "Std",
    "Tot size",
    "IAT",
    "Number",
    "Magnitue",
    "Radius",
    "Covariance",
    "Variance",
    "Weight",
)


@lru_cache(maxsize=1)
def family_map() -> dict:
    """raw label -> attack family (Benign maps to the family 'Benign')."""
    text = resources.files(__package__).joinpath("family_map.json").read_text(encoding="utf-8")
    return json.loads(text)

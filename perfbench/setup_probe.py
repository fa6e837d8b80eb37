"""Set-up probe: a fresh interpreter imports the CLI and parses configs.

No computation runs.  ``run.py`` times this whole process from spawn to exit::

    python3 perfbench/setup_probe.py CONFIG.json [CONFIG.json ...]
"""

import json
import sys
from pathlib import Path

from corona_pdo import cli

for path in sys.argv[1:]:
    cli.ExperimentConfig.from_mapping(json.loads(Path(path).read_text()))

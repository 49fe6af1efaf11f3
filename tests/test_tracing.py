"""The benchmark's traced run finds the functions it spans by name, so a
name that moves or disappears must fail here, not only under ``--trace 1``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# instrument() rebinds functions in every loaded tailens module, so it runs
# in a process of its own. The CLI's bindings of the two dump functions
# must reach the spans named after fusion's.
INSTRUMENT = """
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
from tracing import Tracer, instrument
tracer = Tracer()
instrument(tracer)
from tailens import cli
dump = Path(sys.argv[3]) / "model.csv"
cli.write_posterior_csv(dump, [0], [[1.0]])
cli.ingest_external_posteriors(dump, 1)
print(*(span.name for span in tracer.spans))
"""


def test_instrument_finds_every_spanned_name(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", INSTRUMENT, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "fusion.write_posterior_csv fusion.ingest_external_posteriors\n"

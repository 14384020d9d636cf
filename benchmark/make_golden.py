"""Write the reference CLI artifacts of the shipped configs to golden/.

    python3 benchmark/make_golden.py

The cli_configs workload compares every run of a shipped config against
these files, so they must come from the code the benchmark was defined on;
regenerate them only when a change to the outputs is intended.  The
two_spin trajectory keeps every 20th row and the last, prefixed by the row
index.
"""

import csv
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden"
KEEP = ("naphthalene_spectrum.csv", "biphenyl_spectrum.csv", "anthracene_spectrum.csv",
        "qubit_qubit.csv", "qubit_qubit_report.json", "acp_two_spin_zeta.json")
STRIDE = 20


def main():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        for name in ("naphthalene", "biphenyl", "anthracene", "two_spin", "qubit",
                     "acp_two_spin"):
            subprocess.run([sys.executable, "-m", "spinlind.cli", "--config",
                            str(ROOT / "configs" / f"{name}.cfg"), "--out", str(tmp)],
                           check=True, stdout=subprocess.DEVNULL,
                           env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
        for f in KEEP:
            shutil.copyfile(tmp / f, GOLDEN / f)
        with open(tmp / "two_spin_trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        keep = sorted(set(range(0, len(body), STRIDE)) | {len(body) - 1})
        with open(GOLDEN / "two_spin_trajectory.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row"] + header)
            for i in keep:
                writer.writerow([i] + body[i])


if __name__ == "__main__":
    main()

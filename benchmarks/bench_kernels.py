"""``benchmarks/micro.py kernels`` under its old name, with the same options."""
import sys

import micro
sys.exit(micro.main(["kernels", *sys.argv[1:]]))
